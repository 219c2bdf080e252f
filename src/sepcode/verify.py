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
carries a witness, the lexicographically smallest failing coalition by
member indices, re-checked against the raw definition before it is returned.

For t = 2 every decider reduces to the captured set D = desc({i, j}) ∩ C of
each pair.  The scan walks the code's *profile*: the lexicographic ranks of
the pairs capturing 3 or more codewords, in order, with their counts.  The
walk tallies the histogram of captured-set sizes (a pair it does not list
captures 2), hands the pairs a decider must inspect (a count above 2, or
above 3 where that is the least that can fail) to ``captured_indices`` and
stops at the first witness.  A join makes the profile when the reduced code
(below) has 2^n <= M, as every size-table row, its composition and every
length-2 code do.  Codeword c lies in desc({i, j}), c not i or j, iff i
agrees with c on exactly some non-empty proper position subset A and j
agrees with c off A.  So one sort groups the codewords by their projection
onto every such A, and each c joins its group on A with its group on the
complement, keeping i < j: each (pair, third word) comes out once, in
Σ_c Σ_A |G_A(c)| |G_Ā(c)| steps, about M²/q at length 3.  Where that
passes one step per pair (a dense code), or 2^n > M, the pair engine
walks every pair i < j instead.  It splits the codewords into blocks by
their symbols on the r positions with the most symbols and keeps, per
block, one bitmask of its members per symbol of each other position; a
pair's captured set is, over the 2^r blocks that mix its words' symbols,
the AND over the other positions of the OR of its words' masks.  r makes
2^r x (n - r) x (ceil(block / 64) + 1) least, so dense codes split until
a block fits a few 64-bit limbs and long ones stay whole (M²/2 x n x
ceil(M/64) limb operations); codes whose masks cannot fit in 256 MB are
refused.  On a 2 vCPU Intel Xeon ``capture_stats`` through it takes 0.09 s
on a random (30, 500, 2) code, 0.23 s on all 2,401 words of length 4 over
7 symbols and 8 s on the q = 100 row, which takes the join.
Coalitions of 3 or more (t >= 3) take every coalition's captured set from
``captured_indices``, refused up front (like the oracle's) above a work
limit.  Verdicts from the profile carry ``CaptureStats``.

``is_ssc`` applies a delete-one test to D, ``is_sc`` looks for an earlier
subset with the coalition's descendant inside D, and the two share one
equal-descendant test; at t = 2 only pairs capturing 4 or more can fail
either.  The literal, exponential definition is kept as ``is_ssc_naive``,
the oracle the tests compare against.  For length-3 codes,
``shortened_sc_check`` decides 2-separability in two integer sorts of
shortened-code overlaps, ``forbidden_type_scan`` strong 2-separability
of 2-separable codes by four forbidden captured-set patterns.  The capture
bound ``desc_cap_bound``, when <= 3, suffices for strong 2-separability.

Every scan reduces the code first, keeping every captured set and codeword
index.  A constant column never decides membership in a descendant, so it
is dropped.  On a binary code, a contiguous run of columns holding exactly
one 1 in every row is one position whose symbol is the slot of that 1: a
codeword lies in desc(S) on the run iff some member of S holds its slot,
because its 1 must come from someone.  So a one-hot composition verifies
at the cost of its q-ary source, for every t.  Each position's symbols are
then relabelled by rank, so no alphabet exceeds M and no scan pays for
the declared q.  The reduction is a read-only (M, n') array, the code's own
``array`` when nothing changes, and no second ``Code``.  The profile, the
captured sets and the work limit run on it, and its captured sets are those
of the code as given; the tests on each coalition, ``shortened_sc_check``
and the oracle ``is_ssc_naive`` read the code as given.  Each ``Code``
keeps, like ``Code.packed``, its reduced array, the join's chunks (10.0 MB
at q = 100) and the histogram of its first complete walk, from either
backend, read by a decider no pair can fail.  A failing walk stops at its
witness and keeps no histogram; the pair engine streams its chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .codes import Code, Word, captured_indices, descendant, hamming, shortened

# symbol comparisons above which a per-coalition scan is refused: about half a
# minute of a holding t = 3 is_ssc (4e7 a second on a 2-vCPU Intel Xeon)
_WORK_LIMIT = 10**9
# elements per numpy temporary in either t = 2 backend (256 kB at 8 bytes);
# a tiny code then runs as one batch and a large one in bounded memory
_BLOCK_ELEMS = 1 << 15
# triples per pair of the code the join may expand; past that (a dense code)
# the pair engine's pairs cost less, and the join's kept triples could fill memory
_JOIN_TRIPLES_PER_PAIR = 1
_KEY_LIMIT = 2**63  # bound on the int64 sort keys of shortened_sc_check
# bytes of codeword masks the pair engine may build (see _symbol_masks);
# a code whose masks cannot fit is refused
_MASK_BYTES = 1 << 28


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
    """Counters behind a t = 2 verdict, read from the capture profile.

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

    ``stats`` is filled by the t = 2 scan and left out of equality.
    """

    holds: bool
    witness: Witness | None = None
    stats: CaptureStats | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


def _witness_holds(code: Code, w: Witness) -> bool:
    """Whether a witness holds by the raw definition, in O(|witness| n), or O(M) for an overlap."""

    def desc(members):
        return descendant(code.words[k] for k in members)

    if isinstance(w, FramingWitness):
        return w.framed not in w.coalition and desc(w.coalition).contains(code.words[w.framed])
    if isinstance(w, CollisionWitness):
        return w.first != w.second and desc(w.first) == desc(w.second)
    if isinstance(w, AmbiguityWitness):
        return not set(w.coalition) <= set(w.alternative) and desc(w.coalition) == desc(w.alternative)
    if isinstance(w, OverlapWitness):  # both symbols' shortened codes hold every shared word
        return (len(set(w.shared)) == len(w.shared) > 1 and w.symbols[0] != w.symbols[1]
                and all(set(w.shared) <= shortened(code, w.position, g) for g in w.symbols))
    # each extra word switches one position of one pair word to the other's
    # symbol: every position for pattern 4, all but position pattern - 1 else
    (u, v), spots = (code.words[k] for k in w.pair), {0, 1, 2} - {w.pattern - 1}
    extra = sorted(code.words[k] for k in set(w.matched) - set(w.pair))
    return (code.n == 3 and 0 < w.pattern < 5 and set(w.pair) <= set(w.matched)
            and hamming(u, v) == 3 and any(
                extra == sorted(a[:k] + b[k : k + 1] + a[k + 1 :] for k in spots)
                for a, b in ((u, v), (v, u))))


def _validate_t(t: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")


def _coalitions(words: np.ndarray, t: int) -> Iterator[tuple[int, ...]]:
    """Every coalition of at most t of the (M, n) ``words``, for a per-coalition scan.

    Each is compared symbol by symbol with the whole code: in all, sum over
    k <= t of C(M, k) * M * n comparisons, refused above ``_WORK_LIMIT``.
    """
    (m, n), work = words.shape, 0
    for k in range(1, min(t, m) + 1):
        work += comb(m, k) * m * n
        if work > _WORK_LIMIT:
            raise ValueError(f"t={t} on M={m}, n={n}: over {_WORK_LIMIT:,} comparisons")
    return index_subsets_lex(m, t)


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

    A left-to-right scan opens a run at each column.  No column is constant,
    so the running count of 1s rises at every column, and the run can only
    close where that count has grown by M: there iff each codeword holds one
    of those 1s, an O(M) count.  It then becomes the column of each
    codeword's slot of its 1.  A column that opens no closing run stays.
    """
    n, m = columns.shape
    at, rows = np.divmod(np.flatnonzero(columns), m)  # every 1, in column order
    ones = np.searchsorted(at, np.arange(n + 1))  # the 1s before each column
    stops = np.searchsorted(ones, ones + m).tolist()  # where each run's count reaches M
    ones = ones.tolist()
    merged, start = [], 0
    while start < n:
        stop = stops[start]
        if stop <= n and (np.bincount(rows[ones[start] : ones[stop]], minlength=m) == 1).all():
            merged.append(columns[start:stop].argmax(axis=0))
            start = stop
        else:
            merged.append(columns[start])
            start += 1
    return merged


def _reduce(code: Code) -> np.ndarray:
    """The code's words cut down to what decides its captured sets; indices are kept.

    Drops constant columns (a 1-word code keeps one), merges the one-hot
    runs of a binary code into q-ary positions, and relabels each position's
    symbols by rank, to 0..k-1.  Returns the read-only (M, n') array in the
    smallest unsigned dtype, or ``code.array`` itself when nothing changes.
    """
    arr = code.array
    varies = (arr != arr[0]).any(axis=0)
    varies[0] |= not varies.any()
    kept = arr.T[varies]
    columns = _one_hot_runs(kept) if code.q == 2 else list(kept)
    words = np.stack([np.unique(col, return_inverse=True)[1] for col in columns], axis=1)
    if np.array_equal(words, arr):
        return arr
    words = words.astype(np.min_scalar_type(words.max()))
    words.setflags(write=False)
    return words


@dataclass(eq=False)
class _Profile:
    """What the scans keep in a ``Code``'s ``__dict__``: the ``_reduce``d ``words``,
    the t = 2 ``backend``, the join's ``chunks`` and the histogram, as ``stats``,
    once a walk has tallied every pair."""

    words: np.ndarray
    backend: Optional[str] = None
    chunks: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    stats: Optional[CaptureStats] = None


# ---------------------------------------------------------------------------
# The capture profile at t = 2, from the pair engine or the join, in numpy batches.
# ---------------------------------------------------------------------------


def _symbol_masks(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codeword bitmasks in blocks: the (masks, rows, moves) that ``_capture_counts`` reads.

    The (M, n) ``words`` are split into blocks by their symbols on the r < n
    positions with the most symbols.  The codeword numbered c within its
    block sits at bit c % 64 of limb c // 64 of a row of ``limbs`` uint64
    limbs.  A block holds a row per symbol of each other position:
    ``masks[b + rows[p, c]]`` holds the members of block b that share c's
    symbol at the p-th other position, and c's own block is the sum of its
    ``moves``, one per split position.  A pair reads 2^r blocks of n - r
    rows, so r makes 2^r x (n - r) x (limbs + 1) least (a limb's worth for
    each row's index) among the splits whose masks fit ``_MASK_BYTES``; a
    code with none is refused.  Unsplit (r = 0), the masks take Σ_p k_p x
    ceil(M / 64) x 8 bytes for k_p symbols at position p.
    ``np.bitwise_or.at`` is unbuffered, so codewords sharing a row and a limb
    all land.
    """
    (m, n), cols = words.shape, words.T.astype(np.int64)
    sizes = cols.max(axis=1) + 1
    widest = np.argsort(-sizes, kind="stable").tolist()
    block, blocks, fits = np.zeros(m, np.int64), 1, []
    for r in range(n):
        limbs = -(-int(np.unique(block, return_counts=True)[1].max()) // 64)
        if blocks * limbs * 8 > _MASK_BYTES:  # splitting on more positions only adds to it
            break
        if blocks * int(sizes[widest[r:]].sum()) * limbs * 8 <= _MASK_BYTES:
            fits.append((2**r * (n - r) * (limbs + 1), r, limbs))
        block += blocks * cols[widest[r]]
        blocks *= int(sizes[widest[r]])
    if not fits:
        raise ValueError(f"pair engine on M={m}, n={n}: codeword masks over {_MASK_BYTES:,} bytes")
    _, r, limbs = min(fits)
    split, rest = widest[:r], widest[r:]
    height = int(sizes[rest].sum())  # rows a block
    moves = cols[split] * (np.cumprod(sizes[split]) // sizes[split] * height)[:, None]
    rows = cols[rest] + (np.cumsum(sizes[rest]) - sizes[rest])[:, None]
    base = moves.sum(axis=0)
    order = np.argsort(base, kind="stable")
    local = np.empty(m, np.int64)
    local[order] = np.arange(m) - np.searchsorted(base[order], base[order])
    masks = np.zeros((int(sizes[split].prod()) * height, limbs), np.uint64)
    np.bitwise_or.at(masks, (rows + base, local // 64), np.uint64(1) << (local % 64).astype(np.uint64))
    return masks, rows, moves


def _pairs_at(m: int, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members (i, j) of the pairs i < j < m at the given lexicographic ranks."""
    rows = np.arange(m)
    before = rows * (2 * m - rows - 1) // 2  # pairs whose first member is below i
    first = np.searchsorted(before, rank, side="right") - 1
    return first, rank - before[first] + first + 1


def _capture_counts(
    index: tuple[np.ndarray, np.ndarray, np.ndarray], first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """|desc({i, j}) ∩ C| for each pair (first[k], second[k]), from ``_symbol_masks``.

    A codeword is captured iff it holds i's or j's symbol at every position:
    it lies in a block that mixes i's and j's symbols on the split positions,
    counted once (a mix taking j's symbol where it equals i's repeats one
    taking i's), and holds one of them at each other position.  The block
    buffers are reused, as fresh 256 kB temporaries fault their pages in
    again for every block (twice the time on dense codes); every index is in
    range, so "clip" only spares ``np.take`` a buffer for ``out``.
    """
    masks, rows, moves = index
    counts = np.zeros(first.size, np.int64)
    step = max(1, _BLOCK_ELEMS // masks.shape[1])
    buffers = np.empty((3, min(step, first.size), masks.shape[1]), np.uint64)
    for lo in range(0, first.size, step):
        i, j = first[lo : lo + step], second[lo : lo + step]
        inside, either, other = buffers[:, : i.size]
        mine, theirs = np.take(moves, i, axis=1), np.take(moves, j, axis=1)
        # mix k takes j's symbol at the split positions whose bit is set in k,
        # and is counted where each of them differs from i's
        mixes, counted = np.empty((2, 2 ** len(moves), i.size), np.int64)
        mixes[0], counted[0] = mine.sum(axis=0), 1
        for s in range(len(moves)):
            np.add(mixes[: 2**s], theirs[s] - mine[s], out=mixes[2**s : 2 ** (s + 1)])
            np.multiply(counted[: 2**s], mine[s] != theirs[s], out=counted[2**s : 2 ** (s + 1)])
        ri, rj = np.take(rows, i, axis=1), np.take(rows, j, axis=1)
        for at, weight in zip(mixes, counted):
            inside.fill(~np.uint64(0))  # a row holds only its block's members
            for p in range(len(rows)):
                np.take(masks, at + ri[p], axis=0, out=either, mode="clip")
                np.take(masks, at + rj[p], axis=0, out=other, mode="clip")
                either |= other
                inside &= either
            counts[lo : lo + step] += np.bitwise_count(inside).sum(axis=1, dtype=np.int64) * weight
    return counts


def _pair_profile(words: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pair engine's profile over every pair i < j, one chunk per block of pairs."""
    index, (m, n) = _symbol_masks(words), words.shape
    total = m * (m - 1) // 2
    step = max(1, _BLOCK_ELEMS // n)
    for start in range(0, total, step):
        counts = _capture_counts(index, *_pairs_at(m, np.arange(start, min(start + step, total))))
        big = np.flatnonzero(counts > 2)
        yield start + big, counts[big]


def _join_profile(words: np.ndarray) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
    """The join's profile, in read-only chunks of ``_BLOCK_ELEMS``, or None past its triple limit.

    ``ids[s]`` numbers the codewords' projections onto the positions of
    bitmask s, each below M.  Sorting the keys s * M + ids[s] for every
    0 < s < 2^n - 1 lays out all groups at once.  Cell c * S + s - 1, for
    S = 2^n - 2, holds c's group on s: where it starts in the sort, how many
    codewords besides c it holds and where c sits in it.  Its mirror cell
    c * S + S - s holds c's group on the complement.  The kept ranks are
    sorted in place and counted by runs; counts take the smallest unsigned dtype.
    """
    m, n = words.shape
    full, cols = 2**n - 1, words.T.astype(np.int64)
    ids = np.zeros((full, m), np.int64)
    for s in range(1, full):  # s's lowest position added to the rest of s
        low = (s & -s).bit_length() - 1
        ids[s] = ids[s & s - 1] * (int(cols[low].max()) + 1) + cols[low]
        if ids[s].max() >= m:
            ids[s] = np.unique(ids[s], return_inverse=True)[1]
    keys = (ids[1:].T + np.arange(1, full) * m).ravel()
    order = np.argsort(keys)
    bounds = np.flatnonzero(np.diff(keys[order], prepend=-1, append=-1))
    sizes = np.diff(bounds)
    head = np.repeat(bounds[:-1], sizes)
    start, size, skip = np.empty((3, order.size), np.int64)
    start[order], size[order], skip[order] = head, np.repeat(sizes - 1, sizes), np.arange(order.size) - head
    members, mirror = order // (full - 1), np.arange(order.size).reshape(m, -1)[:, ::-1].ravel()
    work = size * size[mirror]
    if work.sum() > _JOIN_TRIPLES_PER_PAIR * m * (m - 1) // 2:
        return None
    cells = np.flatnonzero(work)
    found, cuts = [], np.unique(np.cumsum(work[cells]) // _BLOCK_ELEMS, return_index=True)[1]
    for block in np.split(cells, cuts[1:]):
        local = np.repeat(np.arange(block.size), work[block])
        rank = np.arange(local.size) - np.repeat(np.cumsum(work[block]) - work[block], work[block])
        other = mirror[block]
        row, col = np.divmod(rank, np.take(size[other], local))
        row += row >= np.take(skip[block], local)
        col += col >= np.take(skip[other], local)
        i = np.take(members, np.take(start[block], local) + row)
        j = np.take(members, np.take(start[other], local) + col)
        # i agrees with c on s; it must differ from c at every other position
        c, s = np.divmod(block, full - 1)
        target = np.where(s + 1 >> np.arange(n)[:, None] & 1, -1, np.take(cols, c, axis=1))
        keep = (np.take(cols, i, axis=1) != np.take(target, local, axis=1)).all(axis=0) & (i < j)
        found.append((i * (2 * m - i - 1) // 2 + j - i - 1)[keep])
    del ids, keys, order, bounds, sizes, head, start, size, skip, members, mirror, work, cells
    ranks = np.concatenate(found)
    found.clear()  # freed, like the grouping arrays, before the count, which then peaks lower
    ranks.sort()
    heads = np.flatnonzero(np.diff(ranks, prepend=-1, append=-1))  # each run's start, and the end
    counts = np.diff(heads)
    counts = counts.astype(np.min_scalar_type(counts.max(initial=0) + 2)) + 2
    ranks = ranks[heads[:-1]]
    for kept in (ranks, counts):
        kept.setflags(write=False)
    return [(ranks[lo : lo + _BLOCK_ELEMS], counts[lo : lo + _BLOCK_ELEMS])
            for lo in range(0, ranks.size, _BLOCK_ELEMS)]


def _scan(
    code: Code,
    t: int,
    test: Optional[Callable[[tuple[int, ...], Sequence[int]], Optional[Witness]]],
    least: int = 3,
) -> Verdict:
    """First coalition, lexicographically, for which ``test`` finds a witness.

    ``test(coalition, captured)`` sees the coalition's sorted captured set
    from ``captured_indices`` on the reduced words, the same as on the code
    as given: for t >= 3 every coalition, for t = 2 the profile's pairs that
    capture at least ``least`` codewords (no other fails the tests here; at
    ``least`` = M + 1 none).  The witness must re-check on the code given.
    """
    _validate_t(t)
    if "_profile" not in vars(code):
        vars(code)["_profile"] = _Profile(_reduce(code))
    kept = vars(code)["_profile"]
    words, witness, stats = kept.words, None, None
    m, n = words.shape
    if t > 2:
        tests = (test(c, captured_indices(words, c)) for c in _coalitions(words, t))
        witness = next(filter(None, tests), None)
    else:
        pairs = m * (m - 1) // 2  # every pair up to the failing one, if any
        if kept.backend is None:
            kept.chunks = _join_profile(words) if 2**n <= m else None
            kept.backend = "pairs" if kept.chunks is None else "join"
        if kept.stats is not None and least > kept.stats.max_capture:
            return Verdict(True, None, kept.stats)  # no pair captures enough to fail
        histogram = np.zeros(max(m + 1, 3), dtype=np.int64)  # pairs by captured-set size
        for ranks, counts in _pair_profile(words) if kept.chunks is None else kept.chunks:
            for r in np.flatnonzero(counts >= least):
                pair = tuple(x.item() for x in _pairs_at(m, ranks[r : r + 1]))
                witness = test(pair, captured_indices(words, pair))
                if witness is not None:
                    pairs, counts = int(ranks[r]) + 1, counts[: r + 1]
                    break
            tally = np.bincount(counts)
            histogram[: tally.size] += tally
            if witness is not None:
                break
        histogram[2] = pairs - histogram.sum()  # the pairs no chunk lists capture 2
        sizes = np.flatnonzero(histogram)
        stats = CaptureStats(pairs, tuple(zip(sizes.tolist(), histogram[sizes].tolist())),
                             int(sizes.max(initial=1)))
        if witness is None:  # a complete walk: its histogram is the code's
            kept.stats = stats
    if witness is not None and not _witness_holds(code, witness):
        raise RuntimeError(f"{witness} does not re-check on the code")
    return Verdict(witness is None, witness, stats)


def capture_stats(code: Code) -> CaptureStats:
    """Captured-set size histogram over all pairs of the code (the profile's tally)."""
    return _scan(code, 2, None, least=code.M + 1).stats  # no pair captures M + 1


# ---------------------------------------------------------------------------
# Deciders.
# ---------------------------------------------------------------------------


def _framing(
    coalition: tuple[int, ...], captured: Sequence[int]
) -> FramingWitness | None:
    if len(captured) == len(coalition):
        return None
    framed = next(i for i in captured if i not in coalition)
    return FramingWitness(coalition=coalition, framed=framed, captured=tuple(captured))


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
    for x in coalition:
        rest = [i for i in captured if i != x]
        if not rest or not _same_descendant(code, rest, coalition):
            continue
        outside = [i for i in captured if i not in coalition]
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
    for coalition in _coalitions(code.array, t):
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
    One sort of keys ((p r + a) r + b) r + s, r the largest symbol + 1, groups
    all positions' words by shortened word (a, b), then symbol; two words of a
    group give a pair (g1, g2), and one sort of keys (p r + g1) r + g2 finds
    the first given twice in (position, g1, g2) order.  Past r = 1,454,083
    (3 r^3 > 2^63) the symbols are ranked and lexsorted by ((p r + a) r + b, s).
    """
    if code.n != 3:
        raise ValueError("shortened-code criterion is defined for length-3 codes only")
    arr, symbols, r = code.array, None, int(code.array.max()) + 1
    if 3 * r**3 > _KEY_LIMIT:  # at most 3 M ranks keep the keys below 3 r^2
        symbols, arr = np.unique(arr, return_inverse=True)
        r = symbols.size
    cols = arr.T.astype(np.int64)
    group = ((np.arange(3)[:, None] * r + cols[[1, 0, 0]]) * r + cols[[2, 2, 1]]).ravel()
    group, symbol = (np.divmod(np.sort(group * r + cols.ravel()), r) if symbols is None else
                     np.stack((group, cols.ravel()))[:, np.lexsort((cols.ravel(), group))])
    bounds = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1], [True])))
    later = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(group.size) - 1  # in its group
    first = np.repeat(np.arange(group.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    pair = (group[first] // r**2 * r + symbol[first]) * r + symbol[second]
    ordered = np.sort(pair)
    again = np.flatnonzero(ordered[1:] == ordered[:-1])
    if not again.size:
        return Verdict(True)
    key = int(ordered[again[0]])  # then the pair's groups, in order: its shared words
    found = np.stack(np.divmod(np.r_[key, group[first[pair == key]]] % r**2, r), axis=1)
    (g1, g2), *shared = (found if symbols is None else symbols[found]).tolist()
    witness = OverlapWitness(key // r**2, (g1, g2), tuple(map(tuple, shared)))
    if not _witness_holds(code, witness):
        raise RuntimeError(f"{witness} does not re-check on the code")
    return Verdict(False, witness)


def desc_cap_bound(code: Code) -> int:
    """Largest captured-set size over coalitions of at most two codewords.

    A value <= 3 on a length-3 code is sufficient for strong
    2-separability, so callers may assert ``is_ssc(code, 2)`` from it.
    """
    if code.n != 3:
        raise ValueError("capture bound is defined for length-3 codes only")
    return capture_stats(code).max_capture
