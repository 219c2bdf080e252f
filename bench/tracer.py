"""In-memory span tracer for the benchmark's traced runs.

A span covers one call into a layer.  The benchmark opens spans around its
own calls into the public functions (``span``), and catches the calls one
sepcode module makes into another by rebinding the name in the calling
module (``patch``), e.g. ``sepcode.verify.captured_indices``.  Spans nest on
a stack, and a span's self time is its duration minus the time its child
spans cover.

The hot primitives run about 10^5 times per certification, so a closing
span is folded into its record's per-name aggregate (calls, total, self)
instead of being kept one by one.  A record is one request, or one set-up,
of the workload; counters live on the same records, so every time comes
with the work it covered.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext


class Record:
    """Spans and counters of one request or set-up (``phase``)."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = {}

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = self.tracer._open()

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.start)
        return False


class Tracer:
    """Records spans and counters into one Record per request or set-up."""

    def __init__(self):
        self.records: list[Record] = []
        self._record: Record | None = None
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, phase: str) -> None:
        self._record = Record(phase)
        self.records.append(self._record)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: int = 1) -> None:
        self._record.counts[name] += int(value)

    def peak(self, name: str, value: int) -> None:
        peaks = self._record.peaks
        peaks[name] = max(peaks.get(name, value), int(value))

    def _open(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        children = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        agg = self._record.spans[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        """Rebind ``module.attr`` to a wrapper that records span ``name``.

        ``hook(tracer, args, result)`` runs after the span closes, to derive
        counters from the call.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            start = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, start)
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class NullTracer:
    """Stands in for Tracer in the untraced runs that give end-to-end numbers."""

    _null = nullcontext()

    def begin(self, phase: str) -> None:
        pass

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass

    def unpatch(self) -> None:
        pass
