"""Reference deciders: the per-coalition verifiers the pair engine replaced.

Each body is the library's earlier implementation, kept word for word: one
``captured_indices`` (or ``descendant``) call per coalition, scanned in
lexicographic order, with the earlier t cap (``max_t``), the frozenset
forbidden patterns, the feasible-set fingerprint and the int64 word array
(``words_array``) as local helpers, and the shortened-code check's frozenset
intersections of every two symbols' shortened codes at each position.
``shortened_sc_check_bucketed`` states that check's definition a second way,
bucketing the codewords by shortened word first, so it scales to codes with
tens of thousands of symbols at a position.
The equivalence tests require the engine-backed verifiers in
``sepcode.verify`` to return equal Verdicts, witnesses included.
``one_hot_runs`` is the definition of the reduction's merged runs, which the
library finds from the running count of 1s.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from sepcode.codes import (
    Code,
    FeasibleSet,
    Word,
    captured_indices,
    descendant,
    hamming,
    shortened,
)
from sepcode.verify import (
    AmbiguityWitness,
    CollisionWitness,
    ForbiddenPatternWitness,
    FramingWitness,
    OverlapWitness,
    Verdict,
    index_subsets_lex,
)

DEFAULT_MAX_T = 4
DEFAULT_SUBSET_CAP = 10_000_000


def _validate_t(t: int, max_t: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")
    if t > max_t:
        raise ValueError(f"t={t} above cap {max_t}; pass a larger max_t to override")


def words_array(code: Code) -> np.ndarray:
    return code.array.astype(np.int64)


def _key(feasible: FeasibleSet) -> tuple[tuple[int, ...], ...]:
    """Canonical hashable fingerprint (sorted symbols per position)."""
    return tuple(tuple(sorted(allowed)) for allowed in feasible.positions)


def _forbidden_patterns(c1: Word, c2: Word) -> list[frozenset[Word]]:
    """The four captured-set patterns that break strong 2-separability.

    For a distance-3 pair c1 = (a1, b1, e1), c2 = (a2, b2, e2) the patterns
    are built from the mixed words (a1,b1,e2), (a1,b2,e1), (a2,b1,e1).
    """
    (a1, b1, e1), (a2, b2, e2) = c1, c2
    c3 = (a1, b1, e2)
    c4 = (a1, b2, e1)
    c5 = (a2, b1, e1)
    return [
        frozenset({c1, c2, c3, c4}),
        frozenset({c1, c2, c3, c5}),
        frozenset({c1, c2, c4, c5}),
        frozenset({c1, c2, c3, c4, c5}),
    ]


def is_fpc(code: Code, t: int, max_t: int = DEFAULT_MAX_T) -> Verdict:
    """Decide the t-frameproof property: desc(S) captures nothing outside S."""
    _validate_t(t, max_t)
    arr = words_array(code)
    for coalition in index_subsets_lex(code.M, t):
        captured = captured_indices(arr, coalition)
        if len(captured) != len(coalition):
            outside = sorted(set(captured) - set(coalition))
            return Verdict(
                False,
                FramingWitness(
                    coalition=coalition,
                    framed=outside[0],
                    captured=tuple(captured),
                ),
            )
    return Verdict(True)


def is_sc(
    code: Code,
    t: int,
    max_t: int = DEFAULT_MAX_T,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> Verdict:
    """Decide t-separability by fingerprinting the descendant of every subset.

    Hashes the canonical feasible-set fingerprint of each subset of size
    <= t; a fingerprint collision is re-checked exactly and reported as the
    witness pair.  Refuses instances with more than ``subset_cap`` subsets.
    """
    _validate_t(t, max_t)
    total = sum(comb(code.M, k) for k in range(1, min(t, code.M) + 1))
    if total > subset_cap:
        raise ValueError(f"instance too large: {total} subsets above cap {subset_cap}")
    seen: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
    for subset in index_subsets_lex(code.M, t):
        feas = descendant(code.words[i] for i in subset)
        fingerprint = _key(feas)
        earlier = seen.get(fingerprint)
        if earlier is not None:
            # fingerprints are canonical; the exact recheck guards the report
            if descendant(code.words[i] for i in earlier) == feas:
                return Verdict(False, CollisionWitness(first=earlier, second=subset))
        else:
            seen[fingerprint] = subset
    return Verdict(True)


def is_ssc(code: Code, t: int, max_t: int = DEFAULT_MAX_T) -> Verdict:
    """Decide strong t-separability via the delete-one test on captured sets.

    For each coalition C0 with |C0| <= t and D = desc(C0) intersect C, the
    coalition is pinned iff desc(D minus {x}) differs from desc(C0) for
    every x in C0.  The witness prefers the disjoint alternative D minus C0
    when it has the same descendant, else D minus {x} for the first
    failing x.
    """
    _validate_t(t, max_t)
    arr = words_array(code)
    for coalition in index_subsets_lex(code.M, t):
        target = descendant(code.words[i] for i in coalition)
        captured = set(captured_indices(arr, coalition))
        for x in coalition:
            rest = sorted(captured - {x})
            if not rest:
                continue
            if descendant(code.words[i] for i in rest) != target:
                continue
            outside = sorted(captured - set(coalition))
            if outside and descendant(code.words[i] for i in outside) == target:
                alternative = tuple(outside)
            else:
                alternative = tuple(rest)
            return Verdict(
                False, AmbiguityWitness(coalition=coalition, alternative=alternative)
            )
    return Verdict(True)


def forbidden_type_scan(code: Code) -> Verdict:
    """Scan a length-3 code for the four forbidden captured-set patterns.

    On codes already verified 2-separable the verdict equals
    ``is_ssc(code, 2)``.  Both orientations of each distance-3 pair are
    tried (the patterns are not symmetric under swapping the pair).
    """
    if code.n != 3:
        raise ValueError("forbidden-pattern scan is defined for length-3 codes only")
    arr = words_array(code)
    for i, j in combinations(range(code.M), 2):
        u, v = code.words[i], code.words[j]
        if hamming(u, v) != 3:
            continue
        captured = captured_indices(arr, (i, j))
        captured_words = frozenset(code.words[k] for k in captured)
        for first, second in ((u, v), (v, u)):
            for pattern_no, pattern in enumerate(
                _forbidden_patterns(first, second), start=1
            ):
                if captured_words == pattern:
                    return Verdict(
                        False,
                        ForbiddenPatternWitness(
                            pair=(i, j), pattern=pattern_no, matched=tuple(captured)
                        ),
                    )
    return Verdict(True)


def desc_cap_bound(code: Code) -> int:
    """Largest captured-set size over coalitions of at most two codewords.

    A value <= 3 on a length-3 code is sufficient for strong
    2-separability, so callers may assert ``is_ssc(code, 2)`` from it.
    """
    if code.n != 3:
        raise ValueError("capture bound is defined for length-3 codes only")
    arr = words_array(code)
    best = 1
    for pair in combinations(range(code.M), 2):
        best = max(best, len(captured_indices(arr, pair)))
    return best


def shortened_sc_check(code: Code) -> Verdict:
    """Length-3 2-separability criterion via shortened-code overlaps.

    Holds iff, at every position, any two shortened codes (one per symbol)
    share at most one length-2 word.  Equals ``is_sc(code, 2)`` for n=3.
    """
    if code.n != 3:
        raise ValueError("shortened-code criterion is defined for length-3 codes only")
    for position in range(3):
        # an absent symbol's shortened code is empty and shares nothing
        symbols = np.unique(code.array[:, position]).tolist()
        cache = {g: shortened(code, position, g) for g in symbols}
        for k, g1 in enumerate(symbols):
            for g2 in symbols[k + 1 :]:
                shared = cache[g1] & cache[g2]
                if len(shared) > 1:
                    return Verdict(
                        False,
                        OverlapWitness(
                            position=position,
                            symbols=(g1, g2),
                            shared=tuple(sorted(shared)),
                        ),
                    )
    return Verdict(True)


def shortened_sc_check_bucketed(code: Code) -> Verdict:
    """``shortened_sc_check`` in O(M + pairs): two symbols at a position share
    a shortened word iff both lie in that word's bucket of symbols, so only
    symbols sharing a word are ever paired.  Same verdict and witness: the
    first position, then the smallest symbol pair, sharing two words or more.
    """
    if code.n != 3:
        raise ValueError("shortened-code criterion is defined for length-3 codes only")
    for position in range(3):
        buckets: dict[Word, list[int]] = {}
        for word in code.words:  # a code's words are distinct: a symbol once a bucket
            buckets.setdefault(word[:position] + word[position + 1 :], []).append(word[position])
        shared: dict[tuple[int, int], list[Word]] = {}
        for rest, symbols in buckets.items():
            for pair in combinations(sorted(symbols), 2):
                shared.setdefault(pair, []).append(rest)
        overlaps = [pair for pair, words in shared.items() if len(words) > 1]
        if overlaps:
            pair = min(overlaps)
            return Verdict(False, OverlapWitness(position, pair, tuple(sorted(shared[pair]))))
    return Verdict(True)


def one_hot_runs(columns: np.ndarray) -> list[np.ndarray]:
    """A binary code's columns (rows of ``columns``), each one-hot run merged.

    From each start, the shortest run in which every codeword holds exactly
    one 1 becomes the column of each codeword's slot of its 1; a start with
    no such run keeps its single column.
    """
    merged, start = [], 0
    while start < len(columns):
        for stop in range(start + 1, len(columns) + 1):
            if (columns[start:stop].sum(axis=0) == 1).all():
                merged.append(columns[start:stop].argmax(axis=0))
                start = stop
                break
        else:
            merged.append(columns[start])
            start += 1
    return merged
