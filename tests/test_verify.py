from __future__ import annotations

import random
import time
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_verify as ref
from conftest import (
    ZERO_PLUS_UNITS,
    ZERO_UNITS_ONES,
    brute_is_fpc,
    brute_is_sc,
    random_code,
)
from test_acceptance import REPORTED_SIZES
from sepcode import verify
from sepcode.codes import Code, desc_intersect_code, hamming, shortened
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
    """Check a failing verdict's witness against the raw definitions: the
    library's own check, and that a listed captured set is the whole one."""
    w = verdict.witness
    assert not verdict.holds and w is not None
    if isinstance(w, OverlapWitness):
        g1, g2 = w.symbols
        shared = shortened(code, w.position, g1) & shortened(code, w.position, g2)
        assert set(w.shared) <= shared
        assert len(w.shared) > 1
        return
    assert verify._witness_holds(code, w)
    if isinstance(w, FramingWitness):
        assert desc_intersect_code(code, w.coalition) == frozenset(w.captured)
    elif isinstance(w, ForbiddenPatternWitness):
        assert desc_intersect_code(code, w.pair) == frozenset(w.matched)
        assert len(w.matched) == (5 if w.pattern == 4 else 4)


# u = 000, v = 111 and the words switching one position of u to v's symbol
PATTERN_CODE = Code.from_words([(0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)])

# (code, witness, whether it holds by the raw definition)
WITNESS_CHECKS = [
    (ZERO_PLUS_UNITS, FramingWitness((1, 2), 0, (0, 1, 2)), True),
    (ZERO_PLUS_UNITS, FramingWitness((1, 2), 1, (0, 1, 2)), False),  # framed is a member
    (ZERO_PLUS_UNITS, FramingWitness((1, 2), 3, (1, 2, 3)), False),  # 001 not in desc
    (FULL_SQUARE, CollisionWitness((0, 3), (1, 2)), True),
    (FULL_SQUARE, CollisionWitness((1, 2), (1, 2)), False),  # not two subsets
    (FULL_SQUARE, CollisionWitness((0, 1), (2, 3)), False),  # other descendants
    (ZERO_UNITS_ONES, AmbiguityWitness((0, 4), (1, 2, 3)), True),
    (ZERO_UNITS_ONES, AmbiguityWitness((0, 4), (0, 1, 4)), False),  # holds the coalition
    (ZERO_UNITS_ONES, AmbiguityWitness((0, 4), (1, 2)), False),  # other descendant
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 4, (0, 1, 2, 3, 4)), True),
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 1, (0, 1, 2, 3, 4)), False),
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 1, (0, 1, 2, 3)), True),  # 001, 010
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 3, (0, 1, 2, 3)), False),
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 5, (0, 1, 2, 3)), False),
    (PATTERN_CODE, ForbiddenPatternWitness((0, 2), 1, (0, 1, 2, 3)), False),  # distance 1
    (PATTERN_CODE, ForbiddenPatternWitness((0, 1), 3, (0, 2, 3)), False),  # pair not listed
]


@pytest.mark.parametrize("code, witness, holds", WITNESS_CHECKS)
def test_the_library_rechecks_witnesses_by_the_raw_definition(code, witness, holds) -> None:
    assert verify._witness_holds(code, witness) is holds


def test_a_witness_that_does_not_recheck_is_never_returned() -> None:
    def frames_a_member(coalition, captured):
        return FramingWitness(coalition, coalition[0], tuple(captured))

    with mock.patch.object(verify, "_framing", frames_a_member):
        for t in (2, 3):
            with pytest.raises(RuntimeError, match="does not re-check"):
                is_fpc(ZERO_PLUS_UNITS, t)


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
    # an index sized by the declared alphabet, q^n = 2^80, could not be built
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
    # an index sized by the declared alphabet, q^3 = 2^120, could not be built
    code = Code(n=3, M=3, q=2**40, words=[(0, 1, 2**40 - 1), (5, 2**40 - 2, 3), (7, 3, 0)])
    # ranked symbols: three per position, so nine one-limb codeword masks
    assert verify._symbol_masks(verify._reduce(code))[0].shape == (9, 1)
    start = time.perf_counter()
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


def test_shortened_check_holds_on_every_table_row_and_q200() -> None:
    for q in [*REPORTED_SIZES, 200]:
        assert shortened_sc_check(build_length3(q, optimal_s(q).s)).holds, q


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


@st.composite
def length3_codes(draw) -> Code:
    """Length-3 codes over few or very many symbols, drawn from a few values
    per position so that shortened codes often share two words or more."""
    q = draw(st.sampled_from([2, 3, 4, 10**6, 2**40, 2**63]))
    symbol = st.sampled_from(sorted({0, 1, 2 % q, q - 1}))
    words = draw(st.lists(st.tuples(symbol, symbol, symbol), min_size=1, max_size=20, unique=True))
    return Code.from_words(words, q=q)


@settings(max_examples=300, deadline=None)
@given(length3_codes())
def test_shortened_check_equals_reference(code: Code) -> None:
    assert shortened_sc_check(code) == ref.shortened_sc_check(code)


@settings(max_examples=300, deadline=None)
@given(length3_codes())
def test_the_ranked_lexsort_rule_of_the_shortened_check_equals_reference(code: Code) -> None:
    # q <= 10**6 takes the full keys and q >= 2**40 the ranked lexsort; under
    # a key limit of 1, every code takes the lexsort
    with mock.patch.object(verify, "_KEY_LIMIT", 1):
        assert shortened_sc_check(code) == ref.shortened_sc_check(code)


@pytest.mark.parametrize("q", [1_454_083, 1_454_084])  # the last radix of the full keys, the first ranked
def test_shortened_check_at_the_edge_of_the_full_keys(q: int) -> None:
    # the group (q - 1, q - 1) at position 2 holds the largest keys
    code = Code.from_words([(a, a, s) for a in (0, q - 1) for s in (q - 2, q - 1)], q=q)
    verdict = shortened_sc_check(code)
    assert verdict.witness == OverlapWitness(2, (q - 2, q - 1), ((0, 0), (q - 1, q - 1)))
    assert verdict == ref.shortened_sc_check(code)


def wide_code(extra: tuple = ()) -> Code:
    """45,000 words over q = 2**63, distinct at position 0, then ``extra``.

    Each shortened word at position 0 is held twice, so its group gives a
    pair; every symbol at position 0 has one word, so none fails there."""
    rng, q = random.Random(28), 2**63
    firsts = {q - 3}  # the largest symbol below the extra words' two
    while len(firsts) < 45_000:
        firsts.add(rng.getrandbits(62))
    words = [(g, k % 150, k // 150 % 150) for k, g in enumerate(sorted(firsts))]
    return Code(n=3, M=len(words) + len(extra), q=q, words=words + list(extra))


def test_shortened_check_on_a_position_of_45000_symbols_at_q_2_pow_63() -> None:
    code = wide_code()
    assert len(np.unique(code.array[:, 0])) == 45_000  # ranked, then the lexsort
    assert shortened_sc_check(code).holds
    q = 2**63
    # two new symbols at position 0, each with the same two shortened words
    extra = ((q - 2, 0, q - 1), (q - 2, 1, 5), (q - 1, 0, q - 1), (q - 1, 1, 5))
    verdict = shortened_sc_check(wide_code(extra))
    assert verdict.witness == OverlapWitness(
        position=0, symbols=(q - 2, q - 1), shared=((0, q - 1), (1, 5))
    )
    revalidate(wide_code(extra), verdict)


def test_a_shortened_check_witness_that_does_not_recheck_raises() -> None:
    code = Code.from_words([(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], q=2)
    witness = shortened_sc_check(code).witness
    assert verify._witness_holds(code, witness)
    corrupt = [
        lambda w: OverlapWitness(w.position, w.symbols, w.shared[:1]),  # one shared word
        lambda w: OverlapWitness(w.position, w.symbols, w.shared[:1] * 2),  # one word twice
        lambda w: OverlapWitness(w.position, w.symbols, ((0, 1),) + w.shared[1:]),  # not held
        lambda w: OverlapWitness(w.position, (0, 0), w.shared),  # one symbol twice
        lambda w: OverlapWitness(1, w.symbols, w.shared),  # another position
    ]
    for bad in corrupt:
        assert not verify._witness_holds(code, bad(witness))

        class Corrupted(OverlapWitness):  # built as the check builds it, then corrupted
            def __init__(self, *fields, bad=bad):
                w = bad(OverlapWitness(*fields))
                super().__init__(w.position, w.symbols, w.shared)

        with mock.patch.object(verify, "OverlapWitness", Corrupted):
            with pytest.raises(RuntimeError, match="does not re-check"):
                shortened_sc_check(code)
