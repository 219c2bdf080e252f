"""A fixed reference task that measures how fast the host runs right now.

The benchmark shares its cores with other tenants.  Their load slows this
process by up to twice, within seconds and for minutes at a time, so two
runs of the same code can differ by more than any useful bound.  The
benchmark therefore runs one pass of this task (a *probe*) before each
step of a request and around each set-up, and reports its times scaled to
the reference speed:

    reported = measured * REFERENCE_MS / the probes taken beside it

The task uses no sepcode code, so a change to the program leaves it alone.
It mixes the kinds of work the program does: an interpreted integer loop,
string and dict building, frozenset algebra, small numpy kernels, and
lookups in a table larger than the core's private caches, which other
tenants' memory traffic slows more than the rest.
"""

from __future__ import annotations

import time

import numpy as np

# About the median probe on the host the benchmark was tuned on (an Intel
# Xeon with 2 vCPUs, Python 3.11, numpy 2.4), so that reported times read
# close to the raw ones there.  Every run prints its median probe and raw
# times too.
REFERENCE_MS = 80.0

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((200, 200))
_BITS = _RNG.integers(0, 2, (2000, 300), dtype=np.int8)
_KEYS = [(i, 7 * i % 50_021) for i in _RNG.permutation(50_000).tolist()]
_TABLE = dict.fromkeys(sorted(_KEYS), 1)


def _interpreted() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _strings() -> int:
    table = {}
    for i in range(50_000):
        table[str(i)] = (i, i + 1)
    return len(" ".join(table))


def _sets() -> int:
    total = 0
    for i in range(3_000):
        a = frozenset(range(i % 50, i % 50 + 40))
        b = frozenset(range(i % 30, i % 30 + 40))
        total += len(a & b) + len(a | b)
    return total


def _arrays() -> float:
    x = _MATRIX
    for _ in range(10):
        x = _MATRIX @ x
        x = x / np.abs(x).max()
    return float(x[0, 0]) + int((_BITS == 1).sum())


def _lookups() -> int:
    table = _TABLE
    return sum(table[key] for key in _KEYS)


def probe() -> float:
    """Seconds one pass of the reference task takes now."""
    start = time.perf_counter()
    _interpreted()
    _strings()
    _sets()
    _arrays()
    _lookups()
    return time.perf_counter() - start
