"""Reference tracers: the per-(coordinate, codeword) loops the array
tracers replaced.

Each body is the library's earlier implementation, kept word for word: a
Python scan of the pinned rows over every codeword, then, for
``ssc_trace``, one scan of every coordinate over every codeword with one
operation counted per touch.  The equivalence tests require the tracers in
``sepcode.trace`` to return equal reports, evidence order and ``ops``
included, and the same error on infeasible input.
"""

from __future__ import annotations

from sepcode.codes import Code, FeasibleSet
from sepcode.trace import TraceReport


def _require_traceable(code: Code, feasible: FeasibleSet, t: int) -> None:
    """The tracers' guards, with their messages, in their order."""
    if code.q != 2:
        raise ValueError("tracing requires a binary code")
    if feasible.n != code.n:
        raise ValueError(f"feasible set has {feasible.n} positions, code has length {code.n}")
    for j, allowed in enumerate(feasible.positions):
        if not allowed <= {0, 1}:
            raise ValueError(f"feasible set is not binary at position {j}")
    if t < 1:
        raise ValueError("t must be at least 1")


def _pinned_rows(feasible: FeasibleSet) -> list[tuple[int, int]]:
    """(position, forced bit) for every singleton position of R."""
    pinned = []
    for j, allowed in enumerate(feasible.positions):
        if allowed == {1}:
            pinned.append((j, 1))
        elif allowed == {0}:
            pinned.append((j, 0))
    return pinned


def lacc_identify(code: Code, feasible: FeasibleSet, t: int) -> TraceReport:
    """Frameproof-code tracer: accuse every word consistent with the pinned rows.

    On a t-frameproof code with R produced by a coalition of at most t
    members, the accused set equals the coalition exactly.
    """
    _require_traceable(code, feasible, t)
    words = code.words
    m = code.M
    ops = 0
    keep = [True] * m
    for j, bit in _pinned_rows(feasible):
        for i in range(m):
            ops += 1
            if words[i][j] != bit:
                keep[i] = False
    accused = frozenset(i for i in range(m) if keep[i])
    return TraceReport(
        colluders=accused,
        overflow=len(accused) > t,
        t=t,
        candidates=accused,
        evidence=(),
        ops=ops,
    )


def ssc_trace(code: Code, feasible: FeasibleSet, t: int) -> TraceReport:
    """Strongly-separable tracer: accuse per-coordinate unique bit carriers.

    Filters the code by the pinned rows, then for each coordinate accuses
    the candidate that alone carries bit 1 there, and the one that alone
    carries bit 0.  On a strongly t-separable code with R the descendant of
    a coalition of at most t members, the accused set equals the coalition.
    """
    _require_traceable(code, feasible, t)
    words = code.words
    m = code.M
    ops = 0
    keep = [True] * m
    for j, bit in _pinned_rows(feasible):
        for i in range(m):
            ops += 1
            if words[i][j] != bit:
                keep[i] = False
    candidates = frozenset(i for i in range(m) if keep[i])
    if not candidates:
        raise ValueError("infeasible R: no codeword matches every pinned coordinate")

    accused: set[int] = set()
    evidence: list[tuple[int, int, int]] = []
    for k in range(code.n):
        ones = zeros = 0
        one_at = zero_at = -1
        for i in range(m):
            ops += 1
            if not keep[i]:
                continue
            if words[i][k] == 1:
                ones += 1
                if ones == 1:
                    one_at = i
            else:
                zeros += 1
                if zeros == 1:
                    zero_at = i
        if ones == 1:
            accused.add(one_at)
            evidence.append((k, 1, one_at))
        if zeros == 1:
            accused.add(zero_at)
            evidence.append((k, 0, zero_at))

    colluders = frozenset(accused)
    return TraceReport(
        colluders=colluders,
        overflow=len(colluders) > t,
        t=t,
        candidates=candidates,
        evidence=tuple(evidence),
        ops=ops,
    )
