"""Verifiers for frameproof, separable, and strongly separable codes.

Three nested properties are decided for a coalition bound t:

* frameproof (``is_fpc``): no coalition of at most t codewords captures an
  outside codeword in its descendant code;
* separable (``is_sc``): distinct subsets of size at most t have distinct
  descendant codes;
* strongly separable (``is_ssc``): for every coalition of size at most t,
  the intersection of all subsets sharing its descendant code is the
  coalition itself, so the descendant pins the coalition exactly.

Frameproof implies strongly separable implies separable.  A failing verdict
carries a witness that re-verifies against the raw definition; witnesses are
chosen deterministically (lexicographically smallest failing coalition by
member indices).

For t = 2 every decider reduces to the captured set D = desc({i, j}) ∩ C of
each pair, and one engine counts them all in numpy batches.  It walks the
pairs i < j in lexicographic order, in blocks sized by element count.  A
pair at distance d has 2^d mixed words (word i with any of the d differing
positions switched to word j's symbol); the engine looks the 2^d - 2 proper
ones up in an index of the code under an additive per-position key, so a
mixed word's key is word i's key plus one delta per switched position.
When q^n is small the key is the exact mixed-radix index into a dense
table; otherwise it is a random 64-bit Zobrist hash looked up with
``searchsorted``, and every hit is confirmed exactly against the pair.  A
pair with 2^d > M is scanned against the whole code instead.  The cost is
about pairs x min(2^d, M) lookups, where the per-coalition path pays one
(M x |S| x n) broadcast per coalition.  Only the few pairs a decider must
inspect (a count above 2, or above 3 where that is the least that can
fail) get their captured set from ``captured_indices``.  Coalitions of 3
or more (t >= 3) take every coalition's captured set that way, through
the same scan, refused up front (like the oracle's) above a work limit.
Verdicts from the engine carry ``CaptureStats``: pairs scanned and the
captured-set size histogram.

``is_ssc`` decides the property through a delete-one test on D: the
coalition is pinned iff no single member x of C0 can be dropped from D
without shrinking the descendant, so among pairs only those capturing at
least 4 codewords need the test.  The literal, exponential form of the
definition is kept as ``is_ssc_naive`` and the two are compared across
randomized inputs in the test suite.  ``is_sc`` looks, at every t, for an
earlier subset with the coalition's descendant among the subsets of its
captured set; for t = 2 only pairs capturing at least 4 codewords can
collide.  Both deciders share one equal-descendant test on captured sets.
For length-3 codes two specialized criteria are provided: a
shortened-code overlap test equivalent to 2-separability, and a
forbidden-pattern scan (distance-3 pairs with |D| >= 4 only, each pattern
read from the words D adds to the pair) that decides strong
2-separability on codes already known to be 2-separable.
``desc_cap_bound`` computes the capture bound whose value <= 3 is a
sufficient condition for strong 2-separability.

Every scan reduces the code first, keeping every captured set and codeword
index.  A constant column never decides membership in a descendant, so it
is dropped.  On a binary code, a contiguous run of columns holding exactly
one 1 in every row is one position whose symbol is the slot of that 1: a
codeword lies in desc(S) on the run iff some member of S holds its slot,
because its 1 must come from someone.  So a one-hot composition verifies
at the cost of its q-ary source, for every t.  Each position's symbols are
then relabelled by rank, so no alphabet exceeds M and no scan pays for
the declared q.  The engine, the captured sets and the work limit run on
the reduced code; the tests on each coalition read the code as given,
which has the same captured sets.  So verdicts, witnesses and stats are
those of the code as given.  ``shortened_sc_check`` and the oracle
``is_ssc_naive`` read the code as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count
from math import comb
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .codes import Code, Word, captured_indices, descendant, shortened

# symbol comparisons above which a per-coalition scan is refused: about half a
# minute of a holding t = 3 is_ssc (4e7 a second on a 2-vCPU Intel Xeon)
_WORK_LIMIT = 10**9
# elements per numpy temporary in the capture engine (256 kB at 8 bytes);
# a tiny code then runs as one batch and a large one in bounded memory
_BLOCK_ELEMS = 1 << 15
# largest q^n indexed by a dense table (int32, 8 MB) instead of hashing
_DENSE_TABLE_MAX = 1 << 21


@dataclass(frozen=True)
class FramingWitness:
    """A coalition whose descendant captures an outside codeword."""

    coalition: tuple[int, ...]
    framed: int
    captured: tuple[int, ...]


@dataclass(frozen=True)
class CollisionWitness:
    """Two distinct small subsets with identical descendant codes."""

    first: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class AmbiguityWitness:
    """A coalition and a set with the same descendant not containing it."""

    coalition: tuple[int, ...]
    alternative: tuple[int, ...]


@dataclass(frozen=True)
class ForbiddenPatternWitness:
    """A distance-3 pair whose captured set matches pattern 1, 2, 3 or 4."""

    pair: tuple[int, int]
    pattern: int
    matched: tuple[int, ...]


@dataclass(frozen=True)
class OverlapWitness:
    """Two shortened codes at one position sharing more than one word."""

    position: int
    symbols: tuple[int, int]
    shared: tuple[Word, ...]


Witness = Union[
    FramingWitness,
    CollisionWitness,
    AmbiguityWitness,
    ForbiddenPatternWitness,
    OverlapWitness,
]


@dataclass(frozen=True)
class CaptureStats:
    """Counters behind a verdict of the pair engine.

    ``pairs`` counts the pairs tallied: every pair, or, for a verdict that
    stops at its first failing pair, the pairs up to and including it in
    lexicographic order.  ``histogram`` holds (captured-set size, pair
    count) by ascending size; ``max_capture`` is the largest captured set of
    a coalition of at most two codewords (1 when there is no pair).
    """

    pairs: int
    histogram: tuple[tuple[int, int], ...]
    max_capture: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of a property check; a witness is present iff it fails.

    ``stats`` is filled by the pair engine (t = 2) and left out of equality.
    """

    holds: bool
    witness: Witness | None = None
    stats: CaptureStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


def _validate_t(t: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")


def _coalitions(code: Code, t: int) -> Iterator[tuple[int, ...]]:
    """Every coalition of at most t codewords, for a per-coalition scan.

    Each is compared symbol by symbol with the whole code: in all, sum over
    k <= t of C(M, k) * M * n comparisons, refused above ``_WORK_LIMIT``.
    """
    work = 0
    for k in range(1, min(t, code.M) + 1):
        work += comb(code.M, k) * code.M * code.n
        if work > _WORK_LIMIT:
            raise ValueError(f"t={t} on M={code.M}, n={code.n}: over {_WORK_LIMIT:,} comparisons")
    return index_subsets_lex(code.M, t)


def index_subsets_lex(count: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """Non-empty index subsets of size <= max_size, lexicographic by sorted tuple.

    Order: (0,), (0,1), (0,1,2), ..., (0,2), ..., (1,), (1,2), ...  Scanning
    in this order makes "first failure found" equal "lexicographically
    smallest failing subset".
    """

    def walk(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for i in range(start, count):
            cur = prefix + (i,)
            yield cur
            if len(cur) < max_size:
                yield from walk(cur, i + 1)

    return walk((), 0)


def _one_hot_runs(columns: np.ndarray) -> list[np.ndarray]:
    """A binary code's columns (rows of ``columns``), each one-hot run merged.

    A left-to-right scan opens a run at each column.  The run can only close
    at the first column by which every codeword has held a 1, and closes
    there iff no codeword holds two; it then becomes the column of each
    codeword's slot of its 1.  A column that opens no closing run stays.
    """
    n, m = columns.shape
    # last[c]: the column by which every codeword holds a 1 from c on (n if never)
    first_one, last = np.full(m, n), [n] * n
    for c in range(n - 1, -1, -1):
        first_one[columns[c] == 1] = c
        last[c] = int(first_one.max())
    ones = np.concatenate(([0], np.cumsum(columns.sum(axis=1)))).tolist()
    merged, start = [], 0
    while start < n:
        stop = last[start] + 1
        if stop <= n and ones[stop] - ones[start] == m:  # one 1 per codeword
            merged.append(columns[start:stop].argmax(axis=0))
            start = stop
        else:
            merged.append(columns[start])
            start += 1
    return merged


def _reduce(code: Code) -> Code:
    """The code cut down to what decides its captured sets; indices are kept.

    Drops constant columns (a 1-word code keeps one), merges the one-hot
    runs of a binary code into q-ary positions, and relabels each position's
    symbols by rank, to 0..k-1.  Returns ``code`` itself when nothing changes.
    """
    arr = code.array
    varies = (arr != arr[0]).any(axis=0)
    varies[0] |= not varies.any()
    kept = arr.T[varies]
    columns = _one_hot_runs(kept) if code.q == 2 else list(kept)
    words = np.stack([np.unique(col, return_inverse=True)[1] for col in columns], axis=1)
    q = max(2, int(words.max()) + 1)
    if q == code.q and np.array_equal(words, arr):
        return code
    return Code(n=words.shape[1], M=code.M, q=q, words=words)


# ---------------------------------------------------------------------------
# The pair engine: captured-set sizes of all pairs, in numpy batches.
# ---------------------------------------------------------------------------


def _zobrist(n: int, q: int, seed: int) -> np.ndarray:
    """Random 64-bit key terms, one per (position, symbol)."""
    return np.random.default_rng(seed).integers(0, 2**64, size=(n, q), dtype=np.uint64)


def _zobrist_terms(words: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Zobrist terms of each word's symbols (M x n) and the word hashes.

    Redrawn until each position's terms and the word hashes are distinct.
    """
    m, n = words.shape
    positions = np.arange(n)
    for seed in count():
        zobrist = _zobrist(n, q, seed)
        terms = zobrist[positions, words]
        hashes = terms.sum(axis=1)
        distinct_terms = (np.diff(np.sort(zobrist), axis=1) != 0).all()
        if distinct_terms and np.unique(hashes).size == m:
            return terms, hashes


class _WordIndex:
    """The code's words under one additive per-position key, for exact lookup.

    ``terms[c, p]`` is codeword c's key term at position p and ``keys[c]``
    their sum, so switching position p of a word from a to b moves its key
    by terms-of-b minus terms-of-a, which is 0 exactly when a = b.  With
    q^n <= _DENSE_TABLE_MAX the terms are mixed-radix digits and a key is an
    exact index into ``table``; otherwise they are the Zobrist terms and
    keys are looked up by ``searchsorted`` (hits must then be confirmed).
    """

    def __init__(self, code: Code):
        self.words = code.array
        self.dense = code.q**code.n <= _DENSE_TABLE_MAX
        if self.dense:
            self.terms = self.words.astype(np.int64) * code.q ** np.arange(code.n)
            self.keys = self.terms.sum(axis=1)
            self.table = np.full(code.q**code.n, -1, dtype=np.int32)
            self.table[self.keys] = np.arange(code.M)
        else:
            self.terms, self.keys = _zobrist_terms(self.words, code.q)
            self.order = np.argsort(self.keys)
            self.ranked = self.keys[self.order]

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Codeword index of each key, -1 where no codeword has it."""
        if self.dense:
            return self.table[keys]
        at = np.minimum(np.searchsorted(self.ranked, keys), self.ranked.size - 1)
        return np.where(self.ranked[at] == keys, self.order[at], -1)


def _pairs_at(m: int, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members (i, j) of the pairs i < j < m at the given lexicographic ranks."""
    rows = np.arange(m)
    before = rows * (2 * m - rows - 1) // 2  # pairs whose first member is below i
    first = np.searchsorted(before, rank, side="right") - 1
    return first, rank - before[first] + first + 1


def _mixed_hits(
    index: _WordIndex, first: np.ndarray, second: np.ndarray, moves: np.ndarray
) -> np.ndarray:
    """How many of each pair's 2^d - 2 proper mixed words are codewords.

    ``moves`` (d x pairs) holds each pair's nonzero key moves in position
    order; row c of ``keys`` is the mixed word that switches the differing
    positions whose rank k has bit k set in c.
    """
    d = moves.shape[0]
    keys = np.empty((2**d, first.size), dtype=index.keys.dtype)
    keys[0] = np.take(index.keys, first)
    for k in range(d):
        np.add(keys[: 2**k], moves[k], out=keys[2**k : 2 ** (k + 1)])
    found = index.find(keys[1:-1])
    if not index.dense:  # confirm each hash hit against its mixed word
        row, col = np.nonzero(found >= 0)
        hit = index.words[found[row, col]]
        a, b = index.words[first[col]], index.words[second[col]]
        cols = np.nonzero(a != b)[1].reshape(-1, d)
        switched = np.take_along_axis(hit, cols, 1) == np.take_along_axis(b, cols, 1)
        bits = ((row + 1)[:, None] >> np.arange(d) & 1).astype(bool)
        exact = ((hit == a) | (hit == b)).all(axis=1) & (switched == bits).all(axis=1)
        found[row[~exact], col[~exact]] = -1
    return (found >= 0).sum(axis=0)


def _capture_counts(
    index: _WordIndex, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """|desc({i, j}) ∩ C| for each pair (first[k], second[k])."""
    # arrays run (position or mixed word) x pair, gathered with np.take:
    # both are several times faster than row-major fancy indexing here
    m, n = index.words.shape
    terms = index.terms.T
    delta = np.take(terms, second, axis=1) - np.take(terms, first, axis=1)
    distance = (delta != 0).sum(axis=0)
    counts = np.full(first.size, 2)
    for d in np.flatnonzero(np.bincount(distance, minlength=2)[2:]).tolist():
        d += 2
        mixed = 2**d <= m
        group = np.flatnonzero(distance == d)
        step = max(1, _BLOCK_ELEMS // (2**d if mixed else m * n))
        for lo in range(0, group.size, step):
            rows = group[lo : lo + step]
            pair_first, pair_second = np.take(first, rows), np.take(second, rows)
            if mixed:
                moves = np.take(delta, rows, axis=1)
                if d < n:
                    moves = moves.T[moves.T != 0].reshape(-1, d).T
                counts[rows] += _mixed_hits(index, pair_first, pair_second, moves)
            else:
                a, b = index.words[pair_first, None], index.words[pair_second, None]
                inside = (index.words == a) | (index.words == b)
                counts[rows] = inside.all(axis=2).sum(axis=1)
    return counts


def _capture_blocks(
    index: _WordIndex,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The engine: (first, second, counts) over every pair i < j, lexicographic.

    ``counts`` holds the captured-set sizes |desc({i, j}) ∩ C|.
    """
    m, n = index.words.shape
    total = m * (m - 1) // 2
    step = max(1, _BLOCK_ELEMS // n)
    for start in range(0, total, step):
        first, second = _pairs_at(m, np.arange(start, min(start + step, total)))
        yield first, second, _capture_counts(index, first, second)


def _scan(
    code: Code,
    t: int,
    test: Optional[Callable[[tuple[int, ...], Sequence[int]], Optional[Witness]]],
    least: int = 3,
) -> Verdict:
    """First coalition, lexicographically, for which ``test`` finds a witness.

    The code is reduced first; ``test(coalition, captured)`` sees the
    coalition's sorted captured set from ``captured_indices`` on the reduced
    code, which is that of the code as given.  t >= 3 takes every coalition
    that way; for t = 2 the engine counts every pair's captured set and only
    the pairs capturing at least ``least`` codewords are taken (singletons
    and pairs capturing only themselves never fail the tests here).
    """
    _validate_t(t)
    code = _reduce(code)
    arr = code.array
    if t > 2:
        for coalition in _coalitions(code, t):
            witness = test(coalition, captured_indices(arr, coalition))
            if witness is not None:
                return Verdict(False, witness)
        return Verdict(True)
    histogram = np.zeros(code.M + 1, dtype=np.int64)  # pairs by captured-set size
    witness = None
    for first, second, counts in _capture_blocks(_WordIndex(code)):
        for r in np.flatnonzero(counts >= least).tolist():
            pair = (int(first[r]), int(second[r]))
            witness = test(pair, captured_indices(arr, pair))
            if witness is not None:
                counts = counts[: r + 1]
                break
        tally = np.bincount(counts)
        histogram[: tally.size] += tally
        if witness is not None:
            break
    sizes = np.flatnonzero(histogram)
    stats = CaptureStats(
        pairs=int(histogram.sum()),
        histogram=tuple(zip(sizes.tolist(), histogram[sizes].tolist())),
        max_capture=int(sizes[-1]) if sizes.size else 1,
    )
    return Verdict(witness is None, witness, stats)


def capture_stats(code: Code) -> CaptureStats:
    """Captured-set size histogram over all pairs of the code (the engine's tally)."""
    # no pair captures more than M codewords, so the scan tests none
    return _scan(code, 2, None, least=code.M + 1).stats


# ---------------------------------------------------------------------------
# Deciders.
# ---------------------------------------------------------------------------


def _framing(
    coalition: tuple[int, ...], captured: Sequence[int]
) -> FramingWitness | None:
    if len(captured) == len(coalition):
        return None
    outside = sorted(set(captured) - set(coalition))
    return FramingWitness(
        coalition=coalition, framed=outside[0], captured=tuple(captured)
    )


def is_fpc(code: Code, t: int) -> Verdict:
    """Decide the t-frameproof property: desc(S) captures nothing outside S."""
    return _scan(code, t, _framing)


def _same_descendant(
    code: Code, subset: Sequence[int], coalition: Sequence[int]
) -> bool:
    """Whether desc(subset) holds every coalition word.

    For a subset of the coalition's captured set this is exactly
    desc(subset) = desc(coalition): each position's symbols of the subset
    already lie among the coalition's.
    """
    arr = code.array
    return bool(
        (arr[list(coalition), None] == arr[None, list(subset)]).any(axis=1).all()
    )


def _collision(
    code: Code, t: int, coalition: tuple[int, ...], captured: Sequence[int]
) -> CollisionWitness | None:
    """An earlier subset of at most t words with the coalition's descendant.

    Every subset with that descendant lies in the captured set, so the first
    of them in lexicographic order is the first seen by the scan.
    """
    for pick in index_subsets_lex(len(captured), t):
        first = tuple(captured[i] for i in pick)
        if _same_descendant(code, first, coalition):
            break
    return None if first == coalition else CollisionWitness(first, coalition)


def is_sc(code: Code, t: int) -> Verdict:
    """Decide t-separability: distinct subsets of size <= t, distinct descendants.

    At every t the scan looks for an earlier subset with the coalition's
    descendant among the subsets of its captured set.  For t = 2 no
    singleton can share a pair's descendant, and only pairs capturing at
    least 4 codewords are tested:

    * two pairs sharing a member never have equal descendants: for a partner
      pair {i, k} of {i, j}, word k must hold j's symbol wherever i and j
      differ and i's symbol wherever they agree, so k = j;
    * two disjoint pairs with equal descendants each capture all four words.
    """
    return _scan(code, t, partial(_collision, code, t), least=4)


def _ambiguity(
    code: Code, coalition: tuple[int, ...], captured: Sequence[int]
) -> AmbiguityWitness | None:
    """The delete-one test on a coalition's captured set; a witness if it fails."""
    members = set(captured)
    for x in coalition:
        rest = sorted(members - {x})
        if not rest or not _same_descendant(code, rest, coalition):
            continue
        outside = sorted(members - set(coalition))
        if outside and _same_descendant(code, outside, coalition):
            alternative = tuple(outside)
        else:
            alternative = tuple(rest)
        return AmbiguityWitness(coalition=coalition, alternative=alternative)
    return None


def is_ssc(code: Code, t: int) -> Verdict:
    """Decide strong t-separability via the delete-one test on captured sets.

    For each coalition C0 with |C0| <= t and D = desc(C0) intersect C, the
    coalition is pinned iff desc(D minus {x}) differs from desc(C0) for
    every x in C0.  The witness prefers the disjoint alternative D minus C0
    when it has the same descendant, else D minus {x} for the first
    failing x.  For t = 2 only pairs capturing at least 4 codewords are
    tested: dropping word i from D = {i, j, c} keeps the descendant only if
    c repeats word i's symbol at every position where i and j differ, which
    makes c = i.
    """
    return _scan(code, t, partial(_ambiguity, code), least=4)


def is_ssc_naive(code: Code, t: int) -> Verdict:
    """Literal strong t-separability: intersect all subsets sharing a descendant.

    For each coalition C0 enumerates every non-empty subset of the captured
    set D, collects those with descendant equal to desc(C0), intersects
    them, and compares with C0.  Exponential in |D|: the subsets of D hold
    |D| * 2^(|D|-1) words of n symbols.  That count joins a running total
    before each D is enumerated, and the scan is refused once the total
    passes the work limit that ``_coalitions`` checks up front.  This is the
    oracle the fast criterion is validated against.
    """
    _validate_t(t)
    work = 0
    for coalition in _coalitions(code, t):
        target = descendant(code.words[i] for i in coalition)
        captured = captured_indices(code.array, coalition)
        work += len(captured) * 2 ** (len(captured) - 1) * code.n
        if work > _WORK_LIMIT:
            raise ValueError(
                f"oracle: captured set of {len(captured)} codewords at {coalition}, "
                f"over {_WORK_LIMIT:,} symbols"
            )
        matching: list[tuple[int, ...]] = []
        for pick in index_subsets_lex(len(captured), len(captured)):
            subset = tuple(captured[i] for i in pick)
            if descendant(code.words[i] for i in subset) == target:
                matching.append(subset)
        core = set(matching[0])
        for subset in matching[1:]:
            core &= set(subset)
        if core != set(coalition):
            alternative = next(
                subset for subset in matching if not set(coalition) <= set(subset)
            )
            return Verdict(
                False, AmbiguityWitness(coalition=coalition, alternative=alternative)
            )
    return Verdict(True)


def _pattern_match(
    code: Code, pair: tuple[int, ...], captured: Sequence[int]
) -> ForbiddenPatternWitness | None:
    """The forbidden pattern a distance-3 pair's captured set (of 4 or more) matches.

    Ordered (u, v), it matches when every other captured word takes v's
    symbol at exactly one position: pattern 4 when all three such words are
    captured, otherwise pattern 1 + the position of the one missing.
    """
    arr = code.array
    u, v = arr[list(pair)]
    if (u == v).any():
        return None
    extra = arr[[k for k in captured if k not in pair]]
    for other in (v, u):
        hit = extra == other
        if (hit.sum(axis=1) == 1).all():
            seen = hit.any(axis=0).tolist()
            pattern = 4 if all(seen) else 1 + seen.index(False)
            return ForbiddenPatternWitness(pair, pattern, tuple(captured))
    return None


def forbidden_type_scan(code: Code) -> Verdict:
    """Scan a length-3 code for the four forbidden captured-set patterns.

    On codes already verified 2-separable the verdict equals
    ``is_ssc(code, 2)``.  Both orientations of each distance-3 pair are
    tried (the patterns are not symmetric under swapping the pair); every
    pattern holds 4 or 5 words, so only pairs capturing at least 4 are.
    """
    if code.n != 3:
        raise ValueError("forbidden-pattern scan is defined for length-3 codes only")
    return _scan(code, 2, partial(_pattern_match, code), least=4)


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


def desc_cap_bound(code: Code) -> int:
    """Largest captured-set size over coalitions of at most two codewords.

    A value <= 3 on a length-3 code is sufficient for strong
    2-separability, so callers may assert ``is_ssc(code, 2)`` from it.
    """
    if code.n != 3:
        raise ValueError("capture bound is defined for length-3 codes only")
    return capture_stats(code).max_capture
