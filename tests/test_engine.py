"""The two backends behind the t = 2 verifiers, the pair engine and the
join, against the per-coalition reference deciders (``reference_verify``)
and the brute-force oracles.

A reduced (M, n) code takes the join when its grouping, (2^n - 2) M cells,
is at most its M(M - 1)/2 pairs and the join expands no more triples than
that, and any other code the pair engine; so each check also runs with
each backend forced, the join on every code of at most 10 positions.
Small codes fit one block, so both backends also run with blocks of a
pair or two.  The pair engine counts each pair's
captured set from per-symbol codeword bitmasks, so the brute-force check
also runs on codes with 63 to 129 codewords, whose masks span one to three
64-bit limbs.  Every scan reduces the code first (a one-hot composition to
its q-ary source), so each check also runs with the reduction switched
off, to keep the full-length binary path covered; a property test compares
the two paths.  Failing verdicts carry the stats of the pairs up to their
witness, which every setting must repeat.

A code keeps its reduction, its join profile and the histogram of its first
complete walk under either backend, so each setting runs on a fresh copy of
the code, which computes its own.
"""

from __future__ import annotations

import random
import tracemalloc
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify as ref
from conftest import ZERO_PLUS_UNITS, ZERO_UNITS_ONES, brute_captured, random_code
from sepcode import verify
from sepcode.codes import Code, captured_indices
from sepcode.construct import build_length3, one_hot_compose, optimal_s
from test_acceptance import REPORTED_SIZES


@contextmanager
def engine_setting(kind: str):
    """The scan as configured, or with one backend forced ("pairs" or
    "join"), tiny blocks or no reduction of the code; "+" joins settings."""
    kinds = kind.split("+")
    pairs, join = verify._pair_profile, verify._join_profile
    with ExitStack() as stack:
        if "pairs" in kinds:
            stack.enter_context(mock.patch.object(verify, "_join_profile", lambda words: None))
        if "join" in kinds:

            def forced(words: np.ndarray):  # the wide codes have too many position subsets
                return (join if words.shape[1] <= 10 else pairs)(words)

            stack.enter_context(mock.patch.object(verify, "_pair_profile", forced))
            stack.enter_context(mock.patch.object(verify, "_JOIN_TRIPLES_PER_PAIR", np.inf))
        if "tiny-blocks" in kinds:
            stack.enter_context(mock.patch.object(verify, "_BLOCK_ELEMS", 7))
        if "unreduced" in kinds:
            stack.enter_context(mock.patch.object(verify, "_reduce", lambda code: code.array))
        yield


ENGINE_SETTINGS = (
    "default",
    "pairs",
    "pairs+tiny-blocks",
    "join",
    "join+tiny-blocks",
    "unreduced",
)


@st.composite
def codes(draw, n=st.integers(1, 6), q=st.integers(2, 4)) -> Code:
    n, q = draw(n), draw(q)
    words = draw(
        st.lists(
            st.tuples(*[st.integers(0, q - 1)] * n),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    return Code.from_words(words, q=q)


def fresh(code: Code) -> Code:
    """An equal code that has computed nothing yet: its array is a copy."""
    return Code(n=code.n, M=code.M, q=code.q, words=code.array)


def _verdicts(module, code: Code, ts) -> dict:
    verdicts = {
        (name, t): getattr(module, name)(code, t)
        for name in ("is_fpc", "is_ssc", "is_sc")
        for t in ts
    }
    if code.n == 3:
        verdicts["forbidden_type_scan"] = module.forbidden_type_scan(code)
        verdicts["desc_cap_bound"] = module.desc_cap_bound(code)
    return verdicts


def pair_stats(code: Code, verdict) -> verify.CaptureStats:
    """A t = 2 verdict's stats, pair by pair: the capture sizes of every
    pair, or of the pairs up to and including the one that failed."""
    pairs = list(combinations(range(code.M), 2))
    w = verdict.witness
    if w is not None:
        failed = w.second if isinstance(w, verify.CollisionWitness) else getattr(w, "pair", None)
        pairs = pairs[: pairs.index(failed or w.coalition) + 1]
    sizes = Counter(len(captured_indices(code.array, pair)) for pair in pairs)
    return verify.CaptureStats(len(pairs), tuple(sorted(sizes.items())), max(sizes, default=1))


def assert_matches_reference(code: Code, ts=(2, 3, 4)) -> None:
    # the reference reads none of the engine settings, so it runs once;
    # Verdict equality leaves stats out, so they are compared on their own
    want = _verdicts(ref, code, ts)
    want_stats = {
        key: pair_stats(code, verdict) if key == "forbidden_type_scan" or 2 in key else None
        for key, verdict in want.items()
        if key != "desc_cap_bound"
    }
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            got = _verdicts(verify, fresh(code), ts)
        assert got == want, kind
        assert {key: got[key].stats for key in want_stats} == want_stats, kind


@settings(max_examples=150, deadline=None)
@given(codes())
def test_verifiers_equal_reference_on_random_codes(code) -> None:
    assert_matches_reference(code)


@settings(max_examples=60, deadline=None)
@given(codes(n=st.just(3)))
def test_verifiers_equal_reference_on_composed_length3_codes(code) -> None:
    assert_matches_reference(one_hot_compose(code))


# positions where pattern 1, 2, 3, 4's extra words take the second word's symbol
PATTERN_POSITIONS = {1: (2, 1), 2: (2, 0), 3: (1, 0), 4: (2, 1, 0)}


@pytest.mark.parametrize("reverse", (False, True), ids=("u-v", "v-u"))
@pytest.mark.parametrize("pattern", sorted(PATTERN_POSITIONS))
def test_forbidden_patterns_in_both_orientations(pattern, reverse) -> None:
    u, v = (0, 0, 0), (1, 1, 1)
    first, second = (v, u) if reverse else (u, v)
    extra = [
        tuple(second[k] if k == p else first[k] for k in range(3))
        for p in PATTERN_POSITIONS[pattern]
    ]
    code = Code.from_words([u, v] + extra)
    assert verify.forbidden_type_scan(code) == verify.Verdict(
        False, verify.ForbiddenPatternWitness((0, 1), pattern, tuple(range(code.M)))
    )
    assert_matches_reference(code)


def test_capture_counts_equal_brute_oracle() -> None:
    rng = random.Random(20261017)
    fixtures = [
        random_code(rng, n=rng.randint(1, 6), max_m=12, max_q=4) for _ in range(40)
    ]
    fixtures += [
        one_hot_compose(random_code(rng, n=3, max_m=12, max_q=4)) for _ in range(10)
    ]
    fixtures.append(one_hot_compose(build_length3(4, 1)))
    # codewords on both sides of a 64-bit limb boundary share symbols; the
    # last three split into blocks on 1 of 4 positions (one limb a block),
    # on 1 of 2 (one limb) and on 1 of 5 (two limbs a block)
    for n, q, m in (
        (8, 2, 63), (8, 2, 64), (8, 2, 65), (8, 2, 129), (4, 4, 129), (2, 10, 100), (5, 4, 260)
    ):
        fixtures.append(Code.from_words(rng.sample(list(product(range(q), repeat=n)), m), q=q))
    blocked = [verify._symbol_masks(code.array) for code in fixtures[-3:]]
    assert [(len(moves), masks.shape[1]) for masks, _, moves in blocked] == [(1, 1), (1, 1), (1, 2)]
    pairs, want = [], []  # the oracle reads none of the engine settings, so it runs once
    for code in fixtures:
        total = code.M * (code.M - 1) // 2
        stride = max(1, -(-total // 10_000))  # every pair, but every 4th of the last code's
        first, second = verify._pairs_at(code.M, np.arange(0, total, stride))
        seen = list(zip(first.tolist(), second.tolist()))
        assert seen == list(combinations(range(code.M), 2))[::stride]
        pairs.append((first, second))
        want.append([len(brute_captured(code, pair)) for pair in seen])
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            for code, (first, second), sizes in zip(fixtures, pairs, want):
                counts = verify._capture_counts(verify._symbol_masks(code.array), first, second)
                assert counts.tolist() == sizes, kind


def _profile(backend, words: np.ndarray) -> tuple[list[int], list[int]]:
    chunks = list(backend(words))
    ranks = [r for rank, _ in chunks for r in rank.tolist()]
    return ranks, [c for _, count in chunks for c in count.tolist()]


@settings(max_examples=200, deadline=None)
@given(codes(q=st.integers(2, 5)))
def test_both_backends_give_the_profile_of_captured_sets(code) -> None:
    pairs = list(combinations(range(code.M), 2))
    sizes = [len(brute_captured(code, pair)) for pair in pairs]
    want = ([r for r, size in enumerate(sizes) if size > 2], [s for s in sizes if s > 2])
    unlimited = mock.patch.object(verify, "_JOIN_TRIPLES_PER_PAIR", np.inf)
    for kind in ("default", "tiny-blocks"):
        with engine_setting(kind), unlimited:  # the join past its triple limit too
            for given_or_reduced in (code.array, verify._reduce(code)):
                assert _profile(verify._pair_profile, given_or_reduced) == want, kind
                assert _profile(verify._join_profile, given_or_reduced) == want, kind


# n = 1 has no proper position subset; M = 1 has no pair
EDGE_CODES = {
    "n=1": Code.from_words([(0,), (2,), (1,)], q=3),
    "M=1": Code.from_words([(2, 0, 1)], q=3),
    "M=2": Code.from_words([(0, 1, 1), (1, 0, 1)], q=2),
    "M=2,n=1": Code.from_words([(1,), (0,)], q=2),
}


@pytest.mark.parametrize("name", sorted(EDGE_CODES))
def test_edge_codes_under_both_backends(name) -> None:
    code = EDGE_CODES[name]
    assert_matches_reference(code, ts=(2, 3))
    pairs = code.M * (code.M - 1) // 2
    want = verify.CaptureStats(pairs, ((2, pairs),) if pairs else (), 2 if pairs else 1)
    for backend in (verify._pair_profile, verify._join_profile):
        assert _profile(backend, code.array) == _profile(backend, verify._reduce(code)) == ([], [])
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            assert verify.capture_stats(fresh(code)) == want, kind


def _near_zero(length: int, moved: dict[int, int]) -> tuple[int, ...]:
    return tuple(moved.get(p, 0) for p in range(length))


def _zero_and_units(n: int) -> Code:
    """n binary columns, none one-hot: the alphabet product is 2^n."""
    units = [_near_zero(n, {p: 1}) for p in range(n)]
    return Code.from_words([_near_zero(n, {})] + units)


# codes whose alphabet product is at or past 2^64
KEY_EDGE_CODES = {
    "binary-2^64": _zero_and_units(64),
    "binary-2^65": _zero_and_units(65),
    # ten constant words give each of the 20 positions all ten symbols
    # (10^20 > 2^64); words near the zero word make pairs at distance 2 and 3
    "q-ary-10^20": Code.from_words(
        [(s,) * 20 for s in range(1, 10)]
        + [_near_zero(20, moved) for moved in (
            {}, {0: 1}, {1: 1}, {0: 1, 1: 1},
            {5: 3}, {6: 3}, {7: 3}, {5: 3, 6: 3, 7: 3},
        )],
        q=10,
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_EDGE_CODES))
def test_codes_whose_alphabet_product_reaches_2_pow_64(name) -> None:
    code = KEY_EDGE_CODES[name]
    assert_matches_reference(code, ts=(2, 3))
    pairs = list(combinations(range(code.M), 2))
    sizes = Counter(len(captured_indices(code.array, pair)) for pair in pairs)
    want = verify.CaptureStats(len(pairs), tuple(sorted(sizes.items())), max(sizes))
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            assert verify.capture_stats(fresh(code)) == want, kind


def test_the_pair_engine_refuses_a_code_whose_masks_pass_their_bound() -> None:
    code = _zero_and_units(8)  # 2^8 > 9 words: the pair engine
    # unsplit, 16 symbol rows of one limb: 128 bytes; every split takes more
    with mock.patch.object(verify, "_MASK_BYTES", 127):
        with pytest.raises(ValueError, match="codeword masks over 127 bytes"):
            verify.capture_stats(fresh(code))
    with mock.patch.object(verify, "_MASK_BYTES", 128):
        assert verify._symbol_masks(verify._reduce(code))[0].nbytes == 128
        assert verify.capture_stats(fresh(code)).max_capture == 3


def test_short_codes_take_the_join_and_long_ones_the_pair_engine() -> None:
    def refuse(words: np.ndarray):
        raise AssertionError(f"the other backend should take (M, n) = {words.shape}")

    # the join runs when its (2^n - 2) M cells of grouping are at most the M(M - 1)/2
    # pairs: every size-table row (972 cells for 13,041 pairs at q = 12), its
    # composition, reduced to it, and the Fano plane's 21 (point, line) incidences
    rows = [build_length3(q, optimal_s(q).s) for q in REPORTED_SIZES]
    fano = Code.from_words([((k + d) % 7, k) for k in range(7) for d in (0, 1, 3)])
    for code in rows + [one_hot_compose(row) for row in rows] + [fano]:
        with mock.patch.object(verify, "_pair_profile", refuse):
            assert verify.capture_stats(code).pairs == code.M * (code.M - 1) // 2
    # the pair engine takes the rest, before the join groups anything: 2^8 > 9
    # words, the length-10 binary cube (1,046,528 cells for 523,776 pairs) and a
    # (10, 1500, 3) code (1,533,000 cells for 1,124,250 pairs)
    cube = Code.from_words(product((0, 1), repeat=10))
    ternary = Code.from_words(random.Random(29).sample(list(product(range(3), repeat=10)), 1500), q=3)
    for code in (_zero_and_units(8), cube, ternary):
        with mock.patch.object(verify, "_join_profile", refuse):
            stats = verify.capture_stats(code)
        with engine_setting("pairs"):
            assert stats == verify.capture_stats(fresh(code)), code.M
    # all 4,096 binary words of length 12: the first framing pair, no grouping
    with mock.patch.object(verify, "_join_profile", refuse):
        verdict = verify.is_fpc(Code.from_words(product((0, 1), repeat=12)), 2)
    assert verdict.witness == verify.FramingWitness((0, 3), 1, (0, 1, 2, 3))
    # the join's own triple check declines what passes the grouping rule: the 27
    # ternary words of length 3 group in 162 cells for 351 pairs, but their
    # 2,592 triples pass the pairs
    ternary_cube = Code.from_words(product(range(3), repeat=3))
    with counted("_join_profile") as (join,):
        assert verify.capture_stats(ternary_cube).histogram[-1] == (8, 108)
    assert join.call_count == 1 and vars(ternary_cube)["_profile"].chunks is None


def test_stats_report_the_capture_histogram() -> None:
    code = build_length3(4, 1)
    stats = verify.capture_stats(code)
    assert stats.pairs == 18 * 17 // 2
    assert sum(pairs for _, pairs in stats.histogram) == stats.pairs
    assert stats.max_capture == verify.desc_cap_bound(code) == 3
    for verdict in (
        verify.is_ssc(code, 2),
        verify.is_sc(code, 2),
        verify.forbidden_type_scan(code),
    ):
        assert verdict.holds and verdict.stats == stats
    assert verify.is_ssc(code, 3).stats is None
    # a failing scan stops at its witness pair: (0, 1), (0, 2), (0, 3), (1, 2)
    framed = verify.is_fpc(ZERO_PLUS_UNITS, 2)
    assert framed.stats == verify.CaptureStats(
        pairs=4, histogram=((2, 3), (3, 1)), max_capture=3
    )
    # (0, 3) captures the whole square but is the first with its descendant;
    # (1, 2) shares it and is the witness
    square = Code.from_words([(0, 0), (0, 1), (1, 0), (1, 1)], q=2)
    assert verify.is_sc(square, 2).stats == verify.CaptureStats(
        pairs=4, histogram=((2, 2), (4, 2)), max_capture=4
    )
    assert verify.capture_stats(Code.from_words([(0, 1, 0)])).max_capture == 1


@st.composite
def near_compositions(draw) -> Code:
    """A q-ary code's one-hot composition with constant columns inserted; in
    about half the draws one row of one block has weight 0 or 2 instead."""
    source = draw(codes(n=st.integers(1, 3)))
    bits = one_hot_compose(source).array.copy()
    if draw(st.booleans()):
        row = draw(st.integers(0, source.M - 1))
        block = draw(st.integers(0, source.n - 1))
        slot = draw(st.integers(0, source.q - 1))
        # the row's own slot loses its 1 (weight 0), any other slot gains one (weight 2)
        bits[row, block * source.q + slot] = slot != source.array[row, block]
    for at in draw(st.lists(st.integers(0, bits.shape[1]), max_size=4)):
        bits = np.insert(bits, at, draw(st.integers(0, 1)), axis=1)
    return Code(n=bits.shape[1], M=source.M, q=2, words=bits)


@settings(max_examples=150, deadline=None)
@given(near_compositions())
def test_reduction_keeps_every_verdict_witness_and_stat(code) -> None:
    reduced = verify._reduce(code)
    assert reduced.shape[0] == code.M and reduced.shape[1] <= code.n
    for pair in combinations(range(code.M), 2):
        assert captured_indices(reduced, pair) == captured_indices(code.array, pair)
    for t in (2, 3):
        for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc):
            got = decide(code, t)
            with engine_setting("unreduced"):
                want = decide(fresh(code), t)
            assert got == want and got.stats == want.stats
    with engine_setting("unreduced"):
        want_stats = verify.capture_stats(fresh(code))
    assert verify.capture_stats(code) == want_stats


@st.composite
def column_mixtures(draw) -> np.ndarray:
    """The columns (one a row) of a binary code: one-hot blocks, such blocks
    with one bit flipped and random columns, in any order, constant ones dropped."""
    m = draw(st.integers(2, 8))
    kinds, blocks = st.sampled_from(("one-hot", "flipped", "random")), []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        width = 1 if kind == "random" else draw(st.integers(1, 4))
        block = np.zeros((width, m), np.uint8)
        if kind == "random":
            block[0] = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        else:
            slots = draw(st.lists(st.integers(0, width - 1), min_size=m, max_size=m))
            block[slots, np.arange(m)] = 1
        if kind == "flipped":
            block[draw(st.integers(0, width - 1)), draw(st.integers(0, m - 1))] ^= 1
        blocks.append(block)
    columns = np.concatenate(blocks)
    return columns[(columns != columns[:, :1]).any(axis=1)]


@settings(max_examples=300, deadline=None)
@given(column_mixtures())
def test_one_hot_runs_follow_their_definition(columns) -> None:
    got, want = verify._one_hot_runs(columns), ref.one_hot_runs(columns)
    assert len(got) == len(want) and all(map(np.array_equal, got, want))


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "broken",
    (((0, 0, 0),) + IDENTITY[1:], ((1, 1, 0),) + IDENTITY[1:]),
    ids=("weight-0", "weight-2"),
)
def test_a_near_one_hot_block_is_not_collapsed(broken) -> None:
    assert np.array_equal(verify._reduce(Code.from_words(IDENTITY)), [[0], [1], [2]])
    reduced = verify._reduce(Code.from_words(broken))
    assert reduced.shape[1] == 2
    assert_matches_reference(Code.from_words(broken))


@pytest.mark.parametrize(
    "words",
    (
        IDENTITY,
        ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
        ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
    ),
    ids=("one-run", "constant-column", "two-column-run"),
)
def test_length3_criteria_on_binary_codes_whose_reduction_shortens_them(words) -> None:
    code = Code.from_words(words)
    assert verify._reduce(code).shape[1] < 3
    assert_matches_reference(code)


def test_reduction_of_trivial_and_irreducible_codes() -> None:
    single = Code.from_words([(0, 1, 0)])  # every column is constant
    assert np.array_equal(verify._reduce(single), [[0]])
    for t in (2, 3):
        for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc):
            assert decide(single, t).holds
    assert verify.capture_stats(single).max_capture == 1
    assert verify._reduce(ZERO_UNITS_ONES) is ZERO_UNITS_ONES.array
    q_ary = build_length3(12, 3)
    assert verify._reduce(q_ary) is q_ary.array
    assert np.array_equal(verify._reduce(one_hot_compose(q_ary)), q_ary.array)


# the t = 2 entry points, and those of them defined on codes of any length
T2_ENTRY_POINTS = {
    "is_ssc": lambda code: verify.is_ssc(code, 2),
    "is_sc": lambda code: verify.is_sc(code, 2),
    "is_fpc": lambda code: verify.is_fpc(code, 2),
    "forbidden_type_scan": verify.forbidden_type_scan,
    "desc_cap_bound": verify.desc_cap_bound,
    "capture_stats": verify.capture_stats,
}
ANY_LENGTH = ("is_ssc", "is_sc", "is_fpc", "capture_stats")


@contextmanager
def counted(*names: str):
    """Counting wrappers around the named ``verify`` functions."""
    with ExitStack() as stack:
        yield [
            stack.enter_context(mock.patch.object(verify, name, wraps=getattr(verify, name)))
            for name in names
        ]


def test_a_code_is_reduced_and_joined_once_for_every_t2_decider() -> None:
    q_ary = build_length3(12, 3)
    for code, names in ((q_ary, sorted(T2_ENTRY_POINTS)), (one_hot_compose(q_ary), ANY_LENGTH)):
        with counted("_reduce", "_join_profile") as (reduce, join):
            for _ in range(2):
                for name in names:
                    T2_ENTRY_POINTS[name](code)
            verify.is_ssc(code, 3)  # t = 3 reads the kept reduction too
        assert (reduce.call_count, join.call_count) == (1, 1), code.n


def test_verify_builds_no_code() -> None:
    q_ary = build_length3(12, 3)
    for code in (fresh(q_ary), one_hot_compose(q_ary)):  # reduced to itself, and to q_ary
        with mock.patch.object(verify, "Code", wraps=verify.Code) as built:
            for t in (2, 3):
                for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc):
                    decide(code, t)
            verify.capture_stats(code)
        assert built.call_count == 0, code.n


def test_an_equal_code_computes_its_own_profile() -> None:
    code = build_length3(12, 3)
    before = hash(code)
    stats = verify.capture_stats(code)
    twin = fresh(code)
    assert twin == code and hash(twin) == hash(code) == before
    with counted("_reduce", "_join_profile") as (reduce, join):
        assert verify.capture_stats(twin) == stats
        assert verify.capture_stats(code) == stats
    assert (reduce.call_count, join.call_count) == (1, 1)
    # the kept chunks are read-only and their counts take the smallest unsigned dtype
    kept = vars(code)["_profile"]
    assert vars(kept)["chunks"] and kept.stats == stats  # the join's, kept when first read
    for ranks, counts in kept.chunks:
        assert counts.dtype == np.uint8 and not ranks.flags.writeable and not counts.flags.writeable


def test_kept_values_die_with_their_code() -> None:
    q_ary = build_length3(12, 3)
    for make in (fresh, one_hot_compose):  # a code reduced to itself, and one not
        code = make(q_ary)
        verify.is_ssc(code, 2)
        gone = weakref.ref(code)
        del code
        assert gone() is None  # no cycle keeps it for the garbage collector


def test_the_pair_engine_still_stops_at_its_first_witness() -> None:
    rng = random.Random(20261019)
    head = [(0,) * 40, (1, 1) + (0,) * 38, (1,) + (0,) * 39]  # {0, 1} frames word 2
    words = set(head)
    while len(words) < 200:
        words.add(tuple(rng.randint(0, 1) for _ in range(40)))
    code = Code.from_words(head + sorted(words - set(head)))  # 2^40 > 200: the pair engine
    counts, pulled = verify._capture_counts, []

    def counting(index, first, second):  # one call per block of pairs
        pulled.append(first.size)
        return counts(index, first, second)

    with mock.patch.object(verify, "_capture_counts", counting):
        for _ in range(2):  # nothing is kept, so each scan pulls its own block
            verdict = verify.is_fpc(code, 2)
            assert verdict.witness == verify.FramingWitness((0, 1), 2, (0, 1, 2))
    assert len(pulled) == 2 and pulled[0] < code.M * (code.M - 1) // 2


def test_the_pair_engine_keeps_the_histogram_of_a_complete_walk() -> None:
    rng = random.Random(20261020)
    u, v = (tuple(rng.randint(0, 1) for _ in range(60)) for _ in range(2))
    head = [u, v, u[:30] + v[30:]]  # {0, 1} frames word 2
    words = set(head)
    while len(words) < 200:
        words.add(tuple(rng.randint(0, 1) for _ in range(60)))
    code = Code.from_words(head + sorted(words - set(head)))  # 2^60 > 200: the pair engine
    counts, pulled = verify._capture_counts, []

    def counting(index, first, second):  # one call per block of pairs
        pulled.append(first.size)
        return counts(index, first, second)

    with mock.patch.object(verify, "_capture_counts", counting):
        assert not verify.is_fpc(code, 2).holds
        assert len(pulled) == 1  # a failing walk keeps nothing
        held = verify.is_ssc(code, 2)
        assert held.holds and sum(pulled[1:]) == code.M * (code.M - 1) // 2
        walked = len(pulled)
        for name in ("is_sc", "capture_stats", "is_ssc"):
            verdict = T2_ENTRY_POINTS[name](code)
            assert getattr(verdict, "stats", verdict) == held.stats, name
        assert len(pulled) == walked
        assert not verify.is_fpc(code, 2).holds and len(pulled) == walked + 1  # its own block
    assert held.stats == verify.capture_stats(fresh(code))


def test_holding_deciders_after_the_first_neither_join_nor_inspect_a_pair() -> None:
    q_ary = build_length3(12, 3)
    for code, names in ((q_ary, sorted(T2_ENTRY_POINTS)), (one_hot_compose(q_ary), ANY_LENGTH)):
        with counted("_join_profile", "captured_indices") as (join, inspect):
            assert not verify.is_fpc(code, 2).holds
            first = (join.call_count, inspect.call_count)
            for _ in range(2):
                for name in names:
                    if name != "is_fpc":
                        T2_ENTRY_POINTS[name](code)
        assert first[0] == 1 and (join.call_count, inspect.call_count) == first, code.n


class CountedChunks(list):
    """The join's chunks, recording the size of each one a walk pulls in ``pulled``."""

    def __init__(self, chunks, pulled: list[int]):
        super().__init__(chunks)
        self.pulled = pulled

    def __iter__(self):
        for chunk in super().__iter__():
            self.pulled.append(chunk[1].size)
            yield chunk


def test_a_failing_walk_of_the_kept_join_stops_in_its_first_chunk() -> None:
    code = build_length3(100, optimal_s(100).s)
    assert verify.capture_stats(code).max_capture == 3
    kept, pulled = vars(code)["_profile"], []
    sizes = [counts.size for _, counts in kept.chunks]
    assert len(sizes) > 1 and max(sizes) == verify._BLOCK_ELEMS
    kept.chunks = CountedChunks(kept.chunks, pulled)
    verdict = verify.is_fpc(code, 2)
    assert verdict.witness == verify.FramingWitness((0, 75), 5625, (0, 75, 5625))
    assert verdict.stats == verify.CaptureStats(75, ((2, 74), (3, 1)), 3)
    assert pulled == [verify._BLOCK_ELEMS]  # its candidates are listed one chunk at a time


def test_the_join_keeps_the_histogram_of_its_first_complete_walk() -> None:
    code, pulled, join = build_length3(100, optimal_s(100).s), [], verify._join_profile

    def counted_join(words: np.ndarray) -> CountedChunks:
        return CountedChunks(join(words), pulled)

    with mock.patch.object(verify, "_join_profile", counted_join):
        assert not verify.is_fpc(code, 2).holds
        kept = vars(code)["_profile"]
        # the failing walk stops in the first of the 34 chunks and keeps no histogram
        assert (len(kept.chunks), len(pulled), kept.stats) == (34, 1, None)
        held = verify.is_ssc(code, 2)
        assert held.holds and len(pulled) == 1 + 34 and kept.stats == held.stats
        for name in ("is_sc", "capture_stats", "is_ssc"):
            verdict = T2_ENTRY_POINTS[name](code)
            assert getattr(verdict, "stats", verdict) == held.stats, name
        assert len(pulled) == 1 + 34
    assert held.stats == verify.capture_stats(fresh(code))


@settings(max_examples=100, deadline=None)
@given(codes(), st.booleans(), st.data())
def test_deciders_in_any_order_failing_first_repeat_a_fresh_code(code, compose, data) -> None:
    code = one_hot_compose(code) if compose else code
    names = data.draw(st.permutations(sorted(T2_ENTRY_POINTS) if code.n == 3 else ANY_LENGTH))
    for kind in ("default", "pairs", "join"):
        with engine_setting(kind):
            want = {name: T2_ENTRY_POINTS[name](fresh(code)) for name in names}
            kept = fresh(code)
            # failing verdicts first: none may leave its partial histogram behind
            for name in sorted(names, key=lambda name: getattr(want[name], "holds", True)):
                got = T2_ENTRY_POINTS[name](kept)
                assert got == want[name], (kind, name)
                assert getattr(got, "stats", None) == getattr(want[name], "stats", None), (kind, name)


@settings(max_examples=100, deadline=None)
@given(codes(), st.booleans())
def test_kept_and_fresh_code_verdicts_and_stats_are_equal(code, compose) -> None:
    code = one_hot_compose(code) if compose else code
    names = sorted(T2_ENTRY_POINTS) if code.n == 3 else ANY_LENGTH

    def outcomes(source):
        return [(x, getattr(x, "stats", None)) for x in (
            [T2_ENTRY_POINTS[name](source()) for name in names]
            + [decide(source(), 3) for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc)]
        )]

    kept = outcomes(lambda: code)
    assert outcomes(lambda: code) == kept == outcomes(lambda: fresh(code))


def test_the_join_frees_its_grouping_arrays_before_its_count() -> None:
    code = build_length3(100, optimal_s(100).s)
    tracemalloc.start()
    try:
        assert verify.capture_stats(code).max_capture == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 31.0 MB measured with numpy 2.4.6, plus a 2.5 MB margin; holding the
    # grouping arrays through the count peaked at 37.0 MB
    assert peak <= 33.5e6
