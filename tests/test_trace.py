from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from conftest import ZERO_PLUS_UNITS, random_code
from sepcode import codes, trace
from sepcode.codes import Code, FeasibleSet, parse_feasible_line
from sepcode.construct import build_length3, one_hot_compose
from sepcode.trace import coalition_feasible_set, lacc_identify, ssc_trace
from sepcode.verify import is_fpc, is_ssc

UNIT_VECTORS = Code.from_words([(1, 0, 0), (0, 1, 0), (0, 0, 1)], q=2)


def fs(line: str):
    return parse_feasible_line(line)


# ------------------------------------------------- coalition_feasible_set


def test_feasible_set_of_unit_pair() -> None:
    assert coalition_feasible_set(ZERO_PLUS_UNITS, (1, 2)) == fs("**0")


def test_feasible_set_of_zero_word() -> None:
    assert coalition_feasible_set(ZERO_PLUS_UNITS, (0,)) == fs("000")


def test_feasible_set_of_all_units() -> None:
    assert coalition_feasible_set(ZERO_PLUS_UNITS, (1, 2, 3)) == fs("***")


def test_feasible_set_requires_binary_code() -> None:
    ternary = Code.from_words([(0, 1), (2, 0)], q=3)
    with pytest.raises(ValueError, match="binary"):
        coalition_feasible_set(ternary, (0,))


# ----------------------------------------------------------- lacc_identify


def test_lacc_on_unit_vectors_with_one_pinned_zero() -> None:
    # only position 2 is pinned (to 0); the survivors are c1 and c2
    report = lacc_identify(UNIT_VECTORS, fs("**0"), 2)
    assert not report.overflow
    assert report.colluders == frozenset({0, 1})


def test_lacc_with_fully_pinned_feasible_set() -> None:
    report = lacc_identify(UNIT_VECTORS, fs("001"), 2)
    assert report.identified == frozenset({2})


def test_lacc_overflows_on_non_frameproof_code() -> None:
    # {c2, c3} also captures c1, so three words survive the filter
    report = lacc_identify(ZERO_PLUS_UNITS, fs("**0"), 2)
    assert report.colluders == frozenset({0, 1, 2})
    assert report.overflow
    assert report.identified is None
    assert report.message == "coalition size >= 3"


def test_lacc_round_trip_on_frameproof_codes() -> None:
    rng = random.Random(501)
    fixtures = [UNIT_VECTORS]
    while len(fixtures) < 4:
        code = random_code(rng, n=4, max_m=8, max_q=2)
        if is_fpc(code, 2).holds:
            fixtures.append(code)
    for code in fixtures:
        for r in (1, 2):
            for coalition in combinations(range(code.M), r):
                feasible = coalition_feasible_set(code, coalition)
                report = lacc_identify(code, feasible, 2)
                assert not report.overflow
                assert report.colluders == frozenset(coalition)


def test_lacc_rejects_non_binary_code() -> None:
    ternary = Code.from_words([(0, 1), (2, 0)], q=3)
    with pytest.raises(ValueError, match="binary"):
        lacc_identify(ternary, fs("00"), 2)


# --------------------------------------------------------------- ssc_trace


def test_ssc_trace_identifies_unit_pair_with_evidence() -> None:
    report = ssc_trace(ZERO_PLUS_UNITS, fs("**0"), 2)
    assert not report.overflow
    assert report.colluders == frozenset({1, 2})
    assert report.candidates == frozenset({0, 1, 2})
    # c2 is the unique 1 at position 0, c3 the unique 1 at position 1
    assert (0, 1, 1) in report.evidence
    assert (1, 1, 2) in report.evidence


def test_ssc_trace_with_fully_pinned_feasible_set() -> None:
    report = ssc_trace(ZERO_PLUS_UNITS, fs("000"), 2)
    assert report.identified == frozenset({0})
    assert report.candidates == frozenset({0})


def test_ssc_trace_overflow_reports_all_unique_carriers() -> None:
    report = ssc_trace(ZERO_PLUS_UNITS, fs("***"), 2)
    assert report.colluders == frozenset({1, 2, 3})
    assert report.overflow
    assert report.message == "coalition size >= 3"


def test_ssc_trace_round_trip_is_exhaustive_on_fixtures() -> None:
    composed = one_hot_compose(build_length3(4, 1))
    fixtures = [ZERO_PLUS_UNITS, composed]
    for code in fixtures:
        assert is_ssc(code, 2).holds
        for r in (1, 2):
            for coalition in combinations(range(code.M), r):
                feasible = coalition_feasible_set(code, coalition)
                report = ssc_trace(code, feasible, 2)
                assert not report.overflow
                assert report.colluders == frozenset(coalition)


def test_tracers_agree_on_frameproof_codes() -> None:
    rng = random.Random(502)
    fixtures = [UNIT_VECTORS]
    while len(fixtures) < 4:
        code = random_code(rng, n=4, max_m=8, max_q=2)
        if is_fpc(code, 2).holds:
            fixtures.append(code)
    for code in fixtures:
        for r in (1, 2):
            for coalition in combinations(range(code.M), r):
                feasible = coalition_feasible_set(code, coalition)
                a = lacc_identify(code, feasible, 2)
                b = ssc_trace(code, feasible, 2)
                assert a.colluders == b.colluders == frozenset(coalition)


def test_evidence_triples_revalidate() -> None:
    composed = one_hot_compose(build_length3(4, 1))
    rng = random.Random(503)
    for _ in range(25):
        coalition = tuple(sorted(rng.sample(range(composed.M), 2)))
        report = ssc_trace(
            composed, coalition_feasible_set(composed, coalition), 2
        )
        for position, bit, index in report.evidence:
            assert index in report.candidates
            carriers = [
                i
                for i in report.candidates
                if composed.words[i][position] == bit
            ]
            assert carriers == [index]


def test_identified_set_lies_inside_candidates() -> None:
    rng = random.Random(504)
    for _ in range(40):
        code = random_code(rng, n=4, max_m=8, max_q=2)
        size = rng.randint(1, min(3, code.M))
        coalition = rng.sample(range(code.M), size)
        feasible = coalition_feasible_set(code, coalition)
        report = ssc_trace(code, feasible, 3)
        assert report.colluders <= report.candidates
        if not report.overflow:
            assert len(report.colluders) <= report.t


def test_ssc_trace_rejects_infeasible_feasible_set() -> None:
    code = Code.from_words([(0, 0), (1, 1)], q=2)
    with pytest.raises(ValueError, match="infeasible"):
        ssc_trace(code, fs("01"), 2)


def test_tracers_validate_inputs() -> None:
    with pytest.raises(ValueError, match="positions"):
        ssc_trace(UNIT_VECTORS, fs("**"), 2)
    with pytest.raises(ValueError, match="at least 1"):
        ssc_trace(UNIT_VECTORS, fs("***"), 0)
    ternary = Code.from_words([(0, 1), (2, 0)], q=3)
    with pytest.raises(ValueError, match="binary"):
        ssc_trace(ternary, fs("00"), 2)


@pytest.mark.parametrize("tracer", [ssc_trace, lacc_identify])
def test_a_non_binary_feasible_set_is_refused_at_its_first_bad_position(tracer) -> None:
    code = one_hot_compose(build_length3(4, 1))
    positions = list(coalition_feasible_set(code, (0, 5)).positions)
    positions[3], positions[7] = frozenset({2}), frozenset({0, 3})
    with pytest.raises(ValueError) as err:
        tracer(code, FeasibleSet(tuple(positions)), 2)
    assert str(err.value) == "feasible set is not binary at position 3"


def test_operation_counter_formula() -> None:
    # one unit per (pinned row, codeword) plus one per (position, codeword)
    report = ssc_trace(ZERO_PLUS_UNITS, fs("**0"), 2)
    assert report.ops == 1 * 4 + 3 * 4
    report = ssc_trace(ZERO_PLUS_UNITS, fs("***"), 2)
    assert report.ops == 3 * 4
    report = lacc_identify(ZERO_PLUS_UNITS, fs("0*0"), 2)
    assert report.ops == 2 * 4


# ----------------------------------------------------------- packed words


def test_traces_share_one_read_only_packing() -> None:
    code = one_hot_compose(build_length3(4, 1))
    untraced = Code(code.n, code.M, code.q, code.words)
    before = (hash(code), repr(code))
    feasible = coalition_feasible_set(code, (0, 5))
    ssc_trace(code, feasible, 2)
    packed = code.packed
    lacc_identify(code, feasible, 2)
    assert code.packed is packed
    with pytest.raises(ValueError, match="read-only"):
        packed[0, 0] = 0
    assert (hash(code), repr(code)) == before
    assert code == untraced and hash(code) == hash(untraced)


def test_rebuilt_code_packs_its_own_words() -> None:
    code = one_hot_compose(build_length3(4, 1))
    packed = code.packed
    rebuilt = Code(code.n, code.M, code.q, code.words)
    assert np.shares_memory(rebuilt.array, code.array)  # the array is shared
    assert rebuilt.packed is not packed
    assert np.array_equal(rebuilt.packed, packed)


def test_packing_requires_binary_code() -> None:
    ternary = Code.from_words([(0, 1), (2, 0)], q=3)
    with pytest.raises(ValueError, match="binary"):
        ternary.packed


def test_each_tracer_packs_only_the_two_rows_of_r() -> None:
    code = one_hot_compose(build_length3(4, 1))
    feasible = coalition_feasible_set(code, (0, 5))
    for tracer in (ssc_trace, lacc_identify):
        with (
            mock.patch.object(codes, "pack_bits", wraps=codes.pack_bits) as repacked,
            mock.patch.object(trace, "pack_bits", wraps=trace.pack_bits) as filtered,
        ):
            tracer(code, feasible, 2)
        assert repacked.call_count == 0
        assert [call.args[0].shape for call in filtered.call_args_list] == [(2, code.n)]
