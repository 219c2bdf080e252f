"""Colluder tracing over binary codes from a detected feasible set.

Both tracers start from the feasible set R recovered by the detector and
filter the code down to the candidate words consistent with every pinned
coordinate (positions where R is {0} or {1}).  The frameproof-code tracer
accuses exactly the filtered set.  The strongly-separable tracer then scans
every coordinate and accuses a candidate that is the unique carrier of bit
1 (or of bit 0) there; the uniqueness sets are evaluated per coordinate,
reset at each one.  Both report overflow when more than t users end up
accused, and both refuse an R that no codeword matches (an infeasible R).

Accusations are exact under the intended preconditions: the filtered set
equals the coalition on a t-frameproof code, and the per-coordinate unique
carriers are exactly the coalition on a strongly t-separable code, whenever
R is the descendant of a coalition of size at most t.  Outside those
preconditions the accused set is still reported, alongside the overflow
verdict when it is too large.

Both tracers filter on the code's bit-packed words (``Code.packed``, each
word ceil(n/64) uint64 limbs, made once by the code's validation, whose
cost the ``Code`` docstring states).  R becomes two limb vectors, a mask of
its pinned positions and their pinned bits, and a word is a candidate when
its limbs ANDed with the mask equal the bits: a few integer operations per
word, whatever the number of pins.  The strongly-separable tracer then makes
one column-sum pass over the candidates' rows of the array.  Reports carry
an operation count of one unit per (coordinate, codeword) pair those passes
decide, pinned*M for the filter plus n*M for the column pass, so a full
trace costs at most 2*n*M units: the count is how the linear-time contract
is asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codes import Code, FeasibleSet, binary_pins, coalition_indices, descendant, pack_bits


@dataclass(frozen=True)
class TraceReport:
    """Outcome of one tracing run.

    ``colluders`` is the accused set; when it exceeds t the report is an
    overflow and ``identified`` is None.  ``candidates`` is the filtered
    set, and ``evidence`` lists the (position, bit, codeword) triples where
    a candidate was the unique carrier of that bit.
    """

    colluders: frozenset[int]
    overflow: bool
    t: int
    candidates: frozenset[int]
    evidence: tuple[tuple[int, int, int], ...]
    ops: int

    @property
    def identified(self) -> frozenset[int] | None:
        return None if self.overflow else self.colluders

    @property
    def message(self) -> str | None:
        return f"coalition size >= {self.t + 1}" if self.overflow else None


def _require_binary(code: Code) -> None:
    if code.q != 2:
        raise ValueError("tracing requires a binary code")


def _candidates(code: Code, feasible: FeasibleSet, t: int) -> tuple[np.ndarray, int]:
    """Rows of the codewords matching every pinned position of R, and the pin count."""
    _require_binary(code)
    if feasible.n != code.n:
        raise ValueError(f"feasible set has {feasible.n} positions, code has length {code.n}")
    pins = binary_pins(feasible)
    if t < 1:
        raise ValueError("t must be at least 1")
    pinned = pins < 2
    limbs = pack_bits(np.stack([pinned, pins == 1]))
    mask, bits = limbs[:, :1], limbs[:, 1:]
    rows = np.flatnonzero(((code.packed & mask) == bits).all(axis=0))
    if not rows.size:
        raise ValueError("infeasible R: no codeword matches every pinned coordinate")
    return rows, int(np.count_nonzero(pinned))


def coalition_feasible_set(code: Code, coalition: Iterable[int]) -> FeasibleSet:
    """Feasible set a coalition exhibits: the descendant of its codewords.

    This is the combinatorial content of the noiseless detector: position i
    is {1} iff every member carries 1 there, {0} iff every member carries
    0, and {0,1} otherwise.
    """
    _require_binary(code)
    members = coalition_indices(code, coalition)
    return descendant(code.words[i] for i in members)


def lacc_identify(code: Code, feasible: FeasibleSet, t: int) -> TraceReport:
    """Frameproof-code tracer: accuse every word consistent with the pinned rows.

    On a t-frameproof code with R produced by a coalition of at most t
    members, the accused set equals the coalition exactly.
    """
    rows, pinned = _candidates(code, feasible, t)
    accused = frozenset(rows.tolist())
    return TraceReport(
        colluders=accused,
        overflow=len(accused) > t,
        t=t,
        candidates=accused,
        evidence=(),
        ops=pinned * code.M,
    )


def ssc_trace(code: Code, feasible: FeasibleSet, t: int) -> TraceReport:
    """Strongly-separable tracer: accuse per-coordinate unique bit carriers.

    Filters the code by the pinned rows, then for each coordinate accuses
    the candidate that alone carries bit 1 there, and the one that alone
    carries bit 0.  On a strongly t-separable code with R the descendant of
    a coalition of at most t members, the accused set equals the coalition.
    The evidence is in position order, and at one position (which two
    candidates can split) bit 1's lone carrier comes before bit 0's.
    """
    rows, pinned = _candidates(code, feasible, t)
    words = code.array[rows]
    ones = words.sum(axis=0, dtype=np.int64)
    # row-major over (position, [bit 1, bit 0]) gives the evidence order
    positions, column = np.nonzero(np.stack([ones == 1, ones == rows.size - 1], axis=1))
    bits = 1 - column
    carriers = rows[(words[:, positions] == bits).argmax(axis=0)]  # the first, here the only one
    colluders = frozenset(carriers.tolist())
    return TraceReport(
        colluders=colluders,
        overflow=len(colluders) > t,
        t=t,
        candidates=frozenset(rows.tolist()),
        evidence=tuple(zip(positions.tolist(), bits.tolist(), carriers.tolist())),
        ops=(pinned + code.n) * code.M,
    )
