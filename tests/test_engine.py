"""The pair engine behind the t = 2 verifiers, against the per-coalition
reference deciders (``reference_verify``) and the brute-force oracles.

Codes with q^n <= 4096 always take the dense-table index and fit one
block, so each check also runs with the dense table switched off (Zobrist
hashing), with a deliberately weak hash whose collisions only the exact
confirmation of every hit can absorb, and with blocks of a pair or two.
Every scan reduces the code first (a one-hot composition to its q-ary
source), so each check also runs with the reduction switched off, under
the dense and the Zobrist index, to keep the full-length binary path
covered; a property test compares the two paths.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, contextmanager
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify as ref
from conftest import ZERO_PLUS_UNITS, ZERO_UNITS_ONES, brute_captured, random_code
from sepcode import verify
from sepcode.codes import Code, captured_indices
from sepcode.construct import build_length3, one_hot_compose


def _weak_zobrist(n: int, q: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 64, size=(n, q), dtype=np.uint64)


@contextmanager
def engine_setting(kind: str):
    """The engine as configured, or with Zobrist hashing, a weak hash, tiny
    blocks or no reduction of the code; "+" joins settings."""
    kinds = kind.split("+")
    with ExitStack() as stack:
        if "zobrist" in kinds or "weak" in kinds:
            stack.enter_context(mock.patch.object(verify, "_DENSE_TABLE_MAX", 0))
        if "weak" in kinds:
            stack.enter_context(mock.patch.object(verify, "_zobrist", _weak_zobrist))
        if "tiny-blocks" in kinds:
            stack.enter_context(mock.patch.object(verify, "_BLOCK_ELEMS", 7))
        if "unreduced" in kinds:
            stack.enter_context(mock.patch.object(verify, "_reduce", lambda code: code))
        yield


ENGINE_SETTINGS = (
    "dense", "zobrist", "weak", "tiny-blocks", "unreduced", "unreduced+zobrist"
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


def assert_matches_reference(code: Code, ts=(2, 3, 4)) -> None:
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            for t in ts:
                assert verify.is_fpc(code, t) == ref.is_fpc(code, t)
                assert verify.is_ssc(code, t) == ref.is_ssc(code, t)
                assert verify.is_sc(code, t) == ref.is_sc(code, t)
            if code.n == 3:
                assert verify.forbidden_type_scan(code) == ref.forbidden_type_scan(code)
                assert verify.desc_cap_bound(code) == ref.desc_cap_bound(code)


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
    for kind in ENGINE_SETTINGS:
        with engine_setting(kind):
            for code in fixtures:
                seen = []
                index = verify._WordIndex(code)
                for first, second, counts in verify._capture_blocks(index):
                    rows = zip(first.tolist(), second.tolist(), counts.tolist())
                    for i, j, size in rows:
                        assert size == len(brute_captured(code, (i, j)))
                        seen.append((i, j))
                assert seen == list(combinations(range(code.M), 2))


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
    assert reduced.M == code.M and reduced.n <= code.n
    for pair in combinations(range(code.M), 2):
        assert captured_indices(reduced.array, pair) == captured_indices(code.array, pair)
    for t in (2, 3):
        for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc):
            got = decide(code, t)
            with engine_setting("unreduced"):
                want = decide(code, t)
            assert got == want and got.stats == want.stats
    with engine_setting("unreduced"):
        want_stats = verify.capture_stats(code)
    assert verify.capture_stats(code) == want_stats


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "broken",
    (((0, 0, 0),) + IDENTITY[1:], ((1, 1, 0),) + IDENTITY[1:]),
    ids=("weight-0", "weight-2"),
)
def test_a_near_one_hot_block_is_not_collapsed(broken) -> None:
    assert verify._reduce(Code.from_words(IDENTITY)) == Code.from_words([(0,), (1,), (2,)])
    reduced = verify._reduce(Code.from_words(broken))
    assert reduced.n == 2
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
    assert verify._reduce(code).n < 3
    assert_matches_reference(code)


def test_reduction_of_trivial_and_irreducible_codes() -> None:
    single = Code.from_words([(0, 1, 0)])  # every column is constant
    assert verify._reduce(single) == Code.from_words([(0,)], q=2)
    for t in (2, 3):
        for decide in (verify.is_fpc, verify.is_sc, verify.is_ssc):
            assert decide(single, t).holds
    assert verify.capture_stats(single).max_capture == 1
    assert verify._reduce(ZERO_UNITS_ONES) is ZERO_UNITS_ONES
    q_ary = build_length3(12, 3)
    assert verify._reduce(q_ary) is q_ary
    assert verify._reduce(one_hot_compose(q_ary)) == q_ary
