from __future__ import annotations

import random

import pytest

import reference_construct as ref
from conftest import ZERO_PLUS_UNITS, random_code
from sepcode.codes import Code
from sepcode.construct import (
    ConstructionPlan,
    build_length3,
    one_hot_compose,
    optimal_s,
    predicted_size,
    size_defect,
)
from sepcode.verify import desc_cap_bound, is_ssc, is_ssc_naive


def valid_s_values(q: int) -> list[int]:
    return [s for s in range(q // 2 + 1) if (q - s) % 2 == 1]


# ------------------------------------------------------------- build_length3


def test_family_size_examples() -> None:
    assert build_length3(4, 1).M == 18
    assert build_length3(5, 2).M == 27


def test_family_without_markers_is_the_shift_orbit_of_arithmetic_columns() -> None:
    code = build_length3(3, 0)
    assert code.M == 9
    expected = {
        tuple((x + g) % 3 for x in (0, j, 2 * j)) for j in range(3) for g in range(3)
    }
    assert set(code.words) == expected


def test_family_at_q2_s1_is_the_zero_plus_units_code() -> None:
    assert set(build_length3(2, 1).words) == set(ZERO_PLUS_UNITS.words)


def test_family_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError, match="odd"):
        build_length3(4, 2)
    with pytest.raises(ValueError, match="out of range"):
        build_length3(4, 3)
    with pytest.raises(ValueError, match="at least 2"):
        build_length3(1, 0)


def test_family_orbit_sizes_and_disjointness() -> None:
    # marker orbits carry 3(q-s) words each, the arithmetic orbit (q-s)^2,
    # all disjoint; distinctness is checked at build time, so the size
    # identity certifies the partition
    for q in range(2, 17):
        for s in valid_s_values(q):
            code = build_length3(q, s)
            base = q - s
            assert code.M == predicted_size(q, s) == base * base + 3 * s * base
            marker_words = [w for w in code.words if max(w) >= base]
            assert len(marker_words) == 3 * s * base
            for i in range(s):
                orbit = [w for w in code.words if base + i in w]
                assert len(orbit) == 3 * base
                assert all(w.count(base + i) == 1 for w in orbit)


def test_family_is_strongly_2_separable_small_range() -> None:
    for q in range(2, 8):
        for s in valid_s_values(q):
            code = build_length3(q, s)
            assert desc_cap_bound(code) <= 3
            assert is_ssc(code, 2).holds


def test_family_equals_the_reference_builder() -> None:
    # the same codewords in the same order, for every valid (q, s) up to 40
    plans = [(q, s) for q in range(2, 41) for s in valid_s_values(q)]
    plans.append((100, optimal_s(100).s))
    for q, s in plans:
        assert build_length3(q, s) == ref.build_length3(q, s)


def test_family_codeword_order_is_deterministic() -> None:
    assert build_length3(5, 2).words == build_length3(5, 2).words
    head = build_length3(4, 1).words[:6]
    # marker orbit first: column (inf_0, 0, 0) shifted by g = 0, 1, 2, then
    # the next cyclic column; the marker relabels to 3
    assert head == ((3, 0, 0), (3, 1, 1), (3, 2, 2), (0, 3, 0), (1, 3, 1), (2, 3, 2))


# ------------------------------------------------------------ one_hot_compose


def test_one_hot_symbol_blocks() -> None:
    code = Code.from_words([(0, 2), (1, 0)], q=3)
    composed = one_hot_compose(code)
    assert composed.n == 6 and composed.q == 2
    assert composed.words[0] == (1, 0, 0, 0, 0, 1)
    assert composed.words[1] == (0, 1, 0, 1, 0, 0)


def test_one_hot_preserves_codeword_count() -> None:
    rng = random.Random(401)
    for _ in range(10):
        code = random_code(rng, n=3, max_m=8, max_q=4)
        assert one_hot_compose(code).M == code.M


def test_one_hot_composition_of_family_is_strongly_separable() -> None:
    composed = one_hot_compose(build_length3(4, 1))
    assert (composed.n, composed.M, composed.q) == (12, 18, 2)
    assert is_ssc(composed, 2).holds


def test_one_hot_preserves_strong_separability_on_small_fixtures() -> None:
    rng = random.Random(402)
    checked = 0
    while checked < 6:
        code = random_code(rng, n=2, max_m=8, max_q=4)
        if code.n * code.q > 16 or not is_ssc(code, 2).holds:
            continue
        checked += 1
        composed = one_hot_compose(code)
        assert is_ssc(composed, 2).holds
        assert is_ssc_naive(composed, 2).holds


# ------------------------------------------------------------------ optimal_s


def test_optimal_plans_from_reported_values() -> None:
    assert optimal_s(12) == ConstructionPlan(q=12, s=3, m=4, w=0, predicted_M=162)
    assert optimal_s(4) == ConstructionPlan(q=4, s=1, m=4, w=0, predicted_M=18)
    assert optimal_s(8) == ConstructionPlan(q=8, s=1, m=0, w=4, predicted_M=70)
    assert optimal_s(5).predicted_M == 27


def test_optimal_s_rejects_small_q() -> None:
    with pytest.raises(ValueError, match="at least 4"):
        optimal_s(3)


def test_optimal_plan_invariants() -> None:
    for q in range(4, 40):
        plan = optimal_s(q)
        assert plan.m == q % 8
        assert plan.w == size_defect(q)
        assert 0 <= 2 * plan.s <= q
        assert (q - plan.s) % 2 == 1
        assert 8 * plan.predicted_M == 9 * q * q - plan.w * plan.w
        assert plan.predicted_M == predicted_size(q, plan.s)


def test_optimal_s_attains_the_brute_force_maximum() -> None:
    for q in range(4, 40):
        plan = optimal_s(q)
        best = max(predicted_size(q, s) for s in valid_s_values(q))
        assert plan.predicted_M == best


def test_predicted_size_closed_form() -> None:
    assert predicted_size(4, 1) == 18
    assert predicted_size(20, 5) == 450
    for q in (3, 5, 7, 9):
        assert predicted_size(q, 0) == q * q


def test_predicted_size_matches_construction() -> None:
    for q in range(2, 12):
        for s in valid_s_values(q):
            assert build_length3(q, s).M == predicted_size(q, s)


def test_constructed_codes_survive_the_text_format() -> None:
    from sepcode.codes import format_code_text, parse_code_text

    for q, s in ((4, 1), (5, 2), (9, 0), (12, 3)):
        code = build_length3(q, s)
        assert parse_code_text(format_code_text(code)) == code
        composed = one_hot_compose(code)
        assert parse_code_text(format_code_text(composed)) == composed
