from __future__ import annotations

import random
import time
from itertools import product
from unittest import mock

import pytest

from conftest import (
    ZERO_PLUS_UNITS,
    ZERO_UNITS_ONES,
    brute_is_fpc,
    brute_is_sc,
    random_code,
)
from sepcode import verify
from sepcode.codes import Code, desc_intersect_code, descendant, hamming, shortened
from sepcode.construct import build_length3, optimal_s
from sepcode.verify import (
    AmbiguityWitness,
    CollisionWitness,
    ForbiddenPatternWitness,
    FramingWitness,
    OverlapWitness,
    Verdict,
    desc_cap_bound,
    forbidden_type_scan,
    index_subsets_lex,
    is_fpc,
    is_sc,
    is_ssc,
    is_ssc_naive,
    shortened_sc_check,
)

UNIT_VECTORS = Code.from_words([(1, 0, 0), (0, 1, 0), (0, 0, 1)], q=2)
FULL_SQUARE = Code.from_words([(0, 0), (0, 1), (1, 0), (1, 1)], q=2)
SINGLETON = Code.from_words([(0, 1, 0)], q=2)


def revalidate(code: Code, verdict: Verdict) -> None:
    """Check a failing verdict's witness against the raw definitions."""
    w = verdict.witness
    assert not verdict.holds and w is not None
    if isinstance(w, FramingWitness):
        captured = desc_intersect_code(code, w.coalition)
        assert captured == frozenset(w.captured)
        assert w.framed in captured - set(w.coalition)
    elif isinstance(w, CollisionWitness):
        assert w.first != w.second
        assert descendant(code.words[i] for i in w.first) == descendant(
            code.words[i] for i in w.second
        )
    elif isinstance(w, AmbiguityWitness):
        assert descendant(code.words[i] for i in w.coalition) == descendant(
            code.words[i] for i in w.alternative
        )
        assert not set(w.coalition) <= set(w.alternative)
    elif isinstance(w, ForbiddenPatternWitness):
        i, j = w.pair
        assert hamming(code.words[i], code.words[j]) == 3
        captured = desc_intersect_code(code, w.pair)
        assert captured == frozenset(w.matched)
        assert len(captured) == (5 if w.pattern == 4 else 4)
    elif isinstance(w, OverlapWitness):
        g1, g2 = w.symbols
        shared = shortened(code, w.position, g1) & shortened(code, w.position, g2)
        assert set(w.shared) <= shared
        assert len(w.shared) > 1
    else:  # pragma: no cover
        pytest.fail(f"unknown witness {w!r}")


def test_subset_enumeration_is_lexicographic() -> None:
    got = list(index_subsets_lex(3, 2))
    assert got == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert got == sorted(got)
    full = list(index_subsets_lex(4, 4))
    assert len(full) == 15
    assert full == sorted(full)


# --------------------------------------------------------------------- is_fpc


def test_fpc_fails_on_zero_plus_units_with_smallest_witness() -> None:
    verdict = is_fpc(ZERO_PLUS_UNITS, 2)
    assert not verdict.holds
    assert verdict.witness == FramingWitness(
        coalition=(1, 2), framed=0, captured=(0, 1, 2)
    )
    revalidate(ZERO_PLUS_UNITS, verdict)


def test_fpc_holds_on_unit_vectors() -> None:
    # frozen from the brute-force oracle over all 6 coalitions of size <= 2
    assert brute_is_fpc(UNIT_VECTORS, 2)
    assert is_fpc(UNIT_VECTORS, 2).holds


def test_fpc_trivially_holds_on_singleton_code() -> None:
    assert is_fpc(SINGLETON, 2).holds


def test_fpc_matches_brute_oracle_on_random_codes() -> None:
    rng = random.Random(301)
    for _ in range(60):
        code = random_code(rng, n=3, max_m=7, max_q=3)
        assert is_fpc(code, 2).holds == brute_is_fpc(code, 2)


def test_fpc_rejects_bad_t() -> None:
    with pytest.raises(ValueError, match="at least 2"):
        is_fpc(UNIT_VECTORS, 1)
    assert is_fpc(UNIT_VECTORS, 5).holds


def test_per_coalition_scans_over_the_work_limit_are_refused_at_once() -> None:
    # all 1,000 words of length 3 over 10 symbols: C(1000, 3) coalitions at
    # t = 3, each compared with the whole code, about 5e11 comparisons
    code = Code.from_words(product(range(10), repeat=3))
    for decide in (is_fpc, is_sc, is_ssc, is_ssc_naive):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="comparisons"):
            decide(code, 3)
        assert time.perf_counter() - start < 1.0


def test_a_huge_alphabet_is_verified_through_ranked_symbols() -> None:
    # an (n, q) table of per-symbol hash terms would take 16 TiB here
    code = Code(n=2, M=3, q=2**40, words=[(0, 1), (5, 2**40 - 1), (7, 3)])
    for decide in (is_fpc, is_sc, is_ssc):
        verdict = decide(code, 2)
        assert verdict.holds
        assert verdict.stats.histogram == ((2, 3),)
        assert decide(code, 3).holds


# ---------------------------------------------------------------------- is_sc


def test_sc_holds_on_zero_units_ones() -> None:
    assert is_sc(ZERO_UNITS_ONES, 2).holds


def test_sc_fails_on_full_square_with_diagonal_witness() -> None:
    verdict = is_sc(FULL_SQUARE, 2)
    assert not verdict.holds
    assert verdict.witness == CollisionWitness(first=(0, 3), second=(1, 2))
    revalidate(FULL_SQUARE, verdict)


def test_sc_holds_on_zero_plus_units() -> None:
    # implied by strong separability; confirmed by the brute-force oracle
    assert brute_is_sc(ZERO_PLUS_UNITS, 2)
    assert is_sc(ZERO_PLUS_UNITS, 2).holds


def test_sc_matches_brute_oracle_on_random_codes() -> None:
    rng = random.Random(302)
    for _ in range(60):
        code = random_code(rng, n=2, max_m=8, max_q=3)
        assert is_sc(code, 2).holds == brute_is_sc(code, 2)


def test_sc_holds_on_the_q64_row_without_a_subset_cap() -> None:
    # 10.6M subsets of at most two codewords, scanned in bounded memory
    assert is_sc(build_length3(64, optimal_s(64).s), 2).holds


# --------------------------------------------------------------------- is_ssc


def test_ssc_holds_on_zero_plus_units() -> None:
    assert is_ssc(ZERO_PLUS_UNITS, 2).holds


def test_ssc_fails_on_zero_units_ones_with_disjoint_witness() -> None:
    verdict = is_ssc(ZERO_UNITS_ONES, 2)
    assert not verdict.holds
    assert verdict.witness == AmbiguityWitness(
        coalition=(0, 4), alternative=(1, 2, 3)
    )
    revalidate(ZERO_UNITS_ONES, verdict)


def test_ssc_trivially_holds_on_singleton_code() -> None:
    assert is_ssc(SINGLETON, 2).holds
    assert is_ssc_naive(SINGLETON, 2).holds


def test_ssc_naive_agrees_on_worked_examples() -> None:
    assert is_ssc_naive(ZERO_PLUS_UNITS, 2).holds
    naive = is_ssc_naive(ZERO_UNITS_ONES, 2)
    assert not naive.holds
    revalidate(ZERO_UNITS_ONES, naive)


def test_ssc_agrees_with_naive_oracle_on_random_codes() -> None:
    rng = random.Random(303)
    for _ in range(60):
        code = random_code(rng, n=3, max_m=8, max_q=4)
        assert is_ssc(code, 2).holds == is_ssc_naive(code, 2).holds


def test_ssc_failure_witnesses_revalidate_on_random_codes() -> None:
    rng = random.Random(304)
    seen_failures = 0
    for _ in range(80):
        code = random_code(rng, n=3, max_m=8, max_q=3)
        verdict = is_ssc(code, 2)
        if not verdict.holds:
            seen_failures += 1
            revalidate(code, verdict)
    assert seen_failures > 5


def test_ssc_naive_refuses_oversized_captured_sets() -> None:
    # the length-5 binary cube, 00000 and 11111 first: the pair (0, 1)
    # captures all 32 words, whose subsets hold 32 * 2^31 * 5 symbols
    ends = [(0,) * 5, (1,) * 5]
    code = Code.from_words(ends + [w for w in product(range(2), repeat=5) if w not in ends])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"captured set of 32 codewords at \(0, 1\)"):
        is_ssc_naive(code, 2)
    assert time.perf_counter() - start < 1.0


# -------------------------------------------------------- length-3 criteria


def test_forbidden_scan_flags_pattern_four_on_zero_units_ones() -> None:
    verdict = forbidden_type_scan(ZERO_UNITS_ONES)
    assert not verdict.holds
    assert verdict.witness == ForbiddenPatternWitness(
        pair=(0, 4), pattern=4, matched=(0, 1, 2, 3, 4)
    )
    revalidate(ZERO_UNITS_ONES, verdict)


def test_forbidden_scan_clears_zero_plus_units() -> None:
    # confirmed by the naive strong-separability oracle
    assert is_ssc_naive(ZERO_PLUS_UNITS, 2).holds
    assert forbidden_type_scan(ZERO_PLUS_UNITS).holds


def test_forbidden_scan_is_vacuous_without_distance_3_pairs() -> None:
    code = Code.from_words([(0, 0, 0), (0, 1, 1), (1, 0, 1)], q=2)
    assert all(
        hamming(u, v) != 3 for u in code.words for v in code.words if u != v
    )
    assert forbidden_type_scan(code).holds


def test_forbidden_scan_matches_ssc_on_separable_random_codes() -> None:
    rng = random.Random(305)
    checked = 0
    for _ in range(120):
        code = random_code(rng, n=3, max_m=8, max_q=3)
        if not is_sc(code, 2).holds:
            continue
        checked += 1
        assert forbidden_type_scan(code).holds == is_ssc(code, 2).holds
    assert checked > 30


def test_forbidden_scan_on_a_huge_alphabet_builds_no_symbol_table() -> None:
    # a (3, q) table of per-symbol hash terms would take 24 TiB here
    code = Code(n=3, M=3, q=2**40, words=[(0, 1, 2**40 - 1), (5, 2**40 - 2, 3), (7, 3, 0)])
    start = time.perf_counter()
    with mock.patch.object(verify, "_zobrist", side_effect=AssertionError("(n, q) table")):
        verdict = forbidden_type_scan(code)
        assert desc_cap_bound(code) == 2
    assert time.perf_counter() - start < 1.0
    assert verdict.holds and verdict.stats.histogram == ((2, 3),)


def test_forbidden_scan_requires_length_3() -> None:
    with pytest.raises(ValueError, match="length-3"):
        forbidden_type_scan(FULL_SQUARE)


def test_shortened_check_holds_on_zero_units_ones() -> None:
    # e.g. the two first-position shortened codes share only (0, 0)
    assert shortened(ZERO_UNITS_ONES, 0, 0) & shortened(ZERO_UNITS_ONES, 0, 1) == {
        (0, 0)
    }
    assert shortened_sc_check(ZERO_UNITS_ONES).holds


def test_shortened_check_fails_on_replicated_tails() -> None:
    code = Code.from_words([(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], q=2)
    verdict = shortened_sc_check(code)
    assert not verdict.holds
    assert verdict.witness == OverlapWitness(
        position=0, symbols=(0, 1), shared=((0, 0), (1, 1))
    )
    revalidate(code, verdict)


def test_shortened_check_reads_only_the_symbols_present() -> None:
    # q^2 / 2 symbol pairs per position would be 5e11 steps here
    q = 10**6
    start = time.perf_counter()
    sparse = Code(n=3, M=3, q=q, words=[(0, 1, 2), (q - 1, 5, 7), (9, q - 2, 3)])
    assert shortened_sc_check(sparse).holds
    tails = Code(n=3, M=4, q=q, words=[(q - 1, 0, 0), (q - 1, 1, 1), (5, 0, 0), (5, 1, 1)])
    assert shortened_sc_check(tails).witness == OverlapWitness(
        position=0, symbols=(5, q - 1), shared=((0, 0), (1, 1))
    )
    assert time.perf_counter() - start < 1.0


def test_shortened_check_holds_on_singleton_code() -> None:
    assert shortened_sc_check(SINGLETON).holds


def test_shortened_check_equals_separability_for_length_3() -> None:
    rng = random.Random(306)
    for _ in range(80):
        code = random_code(rng, n=3, max_m=8, max_q=3)
        assert shortened_sc_check(code).holds == is_sc(code, 2).holds


def test_shortened_check_requires_length_3() -> None:
    with pytest.raises(ValueError, match="length-3"):
        shortened_sc_check(FULL_SQUARE)


def test_capture_bound_values_on_fixtures() -> None:
    assert desc_cap_bound(ZERO_UNITS_ONES) == 5
    assert desc_cap_bound(ZERO_PLUS_UNITS) == 3
    assert desc_cap_bound(SINGLETON) == 1


def test_capture_bound_of_three_implies_strong_separability() -> None:
    rng = random.Random(307)
    for _ in range(60):
        code = random_code(rng, n=3, max_m=8, max_q=3)
        if desc_cap_bound(code) <= 3:
            assert is_ssc(code, 2).holds


def test_capture_bound_requires_length_3() -> None:
    with pytest.raises(ValueError, match="length-3"):
        desc_cap_bound(FULL_SQUARE)


# ----------------------------------------------------- cross-property chains


def test_implication_chain_on_random_codes() -> None:
    rng = random.Random(308)
    for _ in range(80):
        code = random_code(rng, n=rng.randint(2, 4), max_m=8, max_q=3)
        fpc = is_fpc(code, 2).holds
        ssc = is_ssc(code, 2).holds
        sc = is_sc(code, 2).holds
        assert not fpc or ssc
        assert not ssc or sc


def test_length_2_separability_equivalence() -> None:
    rng = random.Random(309)
    for _ in range(80):
        code = random_code(rng, n=2, max_m=8, max_q=3)
        assert is_sc(code, 2).holds == is_ssc(code, 2).holds


def test_verdict_shape_is_enforced() -> None:
    with pytest.raises(ValueError):
        Verdict(True, FramingWitness((0,), 1, (0, 1)))
    with pytest.raises(ValueError):
        Verdict(False, None)
