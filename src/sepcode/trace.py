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
word ceil(n/64) uint64 limbs, made once by the code's validation, about
0.9 ms at q = 100).  R becomes two limb vectors, a mask of its pinned
positions and their pinned bits, and a word is a candidate when its limbs
ANDed with the mask equal the bits: a few integer operations per word,
whatever the number of pins.  The strongly-separable tracer then makes one
column-sum pass over the candidates' rows of the array.  Reports carry an
operation count of one unit per (coordinate, codeword) pair those passes
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


def _require_compatible(code: Code, feasible: FeasibleSet) -> np.ndarray:
    """R's positions as ``binary_pins``; refuses a length mismatch or a non-binary R."""
    if feasible.n != code.n:
        raise ValueError(
            f"feasible set has {feasible.n} positions, code has length {code.n}"
        )
    return binary_pins(feasible)


def _candidates(code: Code, feasible: FeasibleSet, t: int) -> tuple[np.ndarray, int]:
    """Mask of the codewords matching every pinned position of R, and the pin count."""
    _require_binary(code)
    pins = _require_compatible(code, feasible)
    if t < 1:
        raise ValueError("t must be at least 1")
    pinned = pins < 2
    limbs = pack_bits(np.stack([pinned, pins == 1]))
    mask, bits = limbs[:, :1], limbs[:, 1:]
    keep = ((code.packed & mask) == bits).all(axis=0)
    if not keep.any():
        raise ValueError("infeasible R: no codeword matches every pinned coordinate")
    return keep, int(np.count_nonzero(pinned))


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
    keep, pinned = _candidates(code, feasible, t)
    accused = frozenset(np.flatnonzero(keep).tolist())
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
    """
    keep, pinned = _candidates(code, feasible, t)
    rows = np.flatnonzero(keep)
    words = code.array[rows]
    ones = words.sum(axis=0, dtype=np.int64)

    def carriers(columns: np.ndarray, bit: int) -> list[tuple[int, int, int]]:
        at = (words[:, columns] == bit).argmax(axis=0)  # the first, here the only, carrier
        return [(k, bit, i) for k, i in zip(columns.tolist(), rows[at].tolist())]

    # per position the unique carrier of bit 1 is reported before that of bit 0
    sole_one, sole_zero = np.flatnonzero(ones == 1), np.flatnonzero(ones == rows.size - 1)
    evidence = sorted(
        carriers(sole_one, 1) + carriers(sole_zero, 0),
        key=lambda triple: (triple[0], -triple[1]),
    )
    colluders = frozenset(i for _, _, i in evidence)
    return TraceReport(
        colluders=colluders,
        overflow=len(colluders) > t,
        t=t,
        candidates=frozenset(rows.tolist()),
        evidence=tuple(evidence),
        ops=(pinned + code.n) * code.M,
    )
