"""The pair engine behind the t = 2 verifiers, against the per-coalition
reference deciders (``reference_verify``) and the brute-force oracles.

Codes with q^n <= 4096 always take the dense-table index and fit one
block, so each check also runs with the dense table switched off (Zobrist
hashing), with a deliberately weak hash whose collisions only the exact
confirmation of every hit can absorb, and with blocks of a pair or two.
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
from conftest import ZERO_PLUS_UNITS, brute_captured, random_code
from sepcode import verify
from sepcode.codes import Code
from sepcode.construct import build_length3, one_hot_compose


def _weak_zobrist(n: int, q: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 64, size=(n, q), dtype=np.uint64)


@contextmanager
def engine_setting(kind: str):
    """The engine as configured, or with Zobrist hashing, a weak hash or tiny blocks."""
    with ExitStack() as stack:
        if kind in ("zobrist", "weak"):
            stack.enter_context(mock.patch.object(verify, "_DENSE_TABLE_MAX", 0))
        if kind == "weak":
            stack.enter_context(mock.patch.object(verify, "_zobrist", _weak_zobrist))
        if kind == "tiny-blocks":
            stack.enter_context(mock.patch.object(verify, "_BLOCK_ELEMS", 7))
        yield


ENGINE_SETTINGS = ("dense", "zobrist", "weak", "tiny-blocks")


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
