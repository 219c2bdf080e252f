"""Acceptance suite: the release gates for the toolkit, one test per
criterion, each printing a pass/fail line (visible with ``pytest -s``).

Budgeted criteria time themselves; randomized criteria use fixed seeds so
every run checks the same instances.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from conftest import ZERO_PLUS_UNITS, ZERO_UNITS_ONES, random_code
from sepcode import cli
from sepcode.construct import build_length3, one_hot_compose, optimal_s, predicted_size
from sepcode.simulate import averaging_attack, correlate, embed, make_context, threshold
from sepcode.trace import coalition_feasible_set, ssc_trace
from sepcode.verify import (
    AmbiguityWitness,
    ForbiddenPatternWitness,
    FramingWitness,
    capture_stats,
    desc_cap_bound,
    forbidden_type_scan,
    is_fpc,
    is_sc,
    is_ssc,
    is_ssc_naive,
    shortened_sc_check,
)

REPORTED_SIZES = {
    4: 18,
    12: 162,
    20: 450,
    28: 882,
    36: 1458,
    44: 2178,
    52: 3042,
    60: 4050,
    68: 5202,
    76: 6498,
    84: 7938,
    92: 9522,
    100: 11250,
}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {label}")
        raise
    print(f"criterion {num:2d}: PASS  {label}")


def valid_s_values(q: int) -> list[int]:
    return [s for s in range(q // 2 + 1) if (q - s) % 2 == 1]


def attack_feasible_set(ctx, code, coalition, eps=1e-6):
    signals = [embed(ctx, code.words[i]) for i in coalition]
    return threshold(correlate(ctx, averaging_attack(signals)), eps)


def test_criterion_01_four_word_example_verdicts_and_speed() -> None:
    with criterion(1, "(3,4,2) example: strongly separable, not frameproof, < 1 ms"):
        code = ZERO_PLUS_UNITS
        is_ssc(code, 2)  # warm both paths before timing
        is_fpc(code, 2)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            ssc = is_ssc(code, 2)
            fpc = is_fpc(code, 2)
            best = min(best, time.perf_counter() - start)
        assert ssc.holds
        assert not fpc.holds
        assert fpc.witness == FramingWitness(
            coalition=(1, 2), framed=0, captured=(0, 1, 2)
        )
        assert best < 1e-3


def test_criterion_02_five_word_example_verdicts_and_pattern() -> None:
    with criterion(2, "(3,5,2) example: separable, not strongly; pattern 4 pair"):
        code = ZERO_UNITS_ONES
        assert is_sc(code, 2).holds
        verdict = is_ssc(code, 2)
        assert not verdict.holds
        assert verdict.witness == AmbiguityWitness(
            coalition=(0, 4), alternative=(1, 2, 3)
        )
        scan = forbidden_type_scan(code)
        assert not scan.holds
        assert isinstance(scan.witness, ForbiddenPatternWitness)
        assert scan.witness.pair == (0, 4)
        assert scan.witness.pattern == 4


def test_criterion_03_reported_family_sizes() -> None:
    with criterion(3, "family sizes for q = 4, 12, ..., 100 match the table"):
        for q, expected in REPORTED_SIZES.items():
            plan = optimal_s(q)
            assert plan.predicted_M == expected
            # every listed q is 4 mod 8, where the family reaches 9/8 q^2
            assert q % 8 == 4
            assert 8 * plan.predicted_M == 9 * q * q


def test_criterion_04_construction_soundness() -> None:
    with criterion(4, "all (q,s) with 3 <= q <= 11: size, capture bound, SSC; < 60 s"):
        start = time.perf_counter()
        pairs = 0
        for q in range(3, 12):
            for s in valid_s_values(q):
                pairs += 1
                code = build_length3(q, s)
                assert code.M == q * q + s * q - 2 * s * s
                assert desc_cap_bound(code) <= 3
                assert is_ssc(code, 2).holds
        assert pairs == 19
        assert time.perf_counter() - start < 60.0


def test_criterion_05_marker_count_is_the_argmax() -> None:
    with criterion(5, "optimal s maximizes the size formula for 4 <= q <= 100"):
        for q in range(4, 101):
            plan = optimal_s(q)
            best = max(predicted_size(q, s) for s in valid_s_values(q))
            assert predicted_size(q, plan.s) == best == plan.predicted_M


def test_criterion_06_fast_checker_equals_naive_oracle() -> None:
    with criterion(6, "fast vs naive strong-separability on 200 random codes"):
        rng = random.Random(20260806)
        disagreements = 0
        for _ in range(200):
            code = random_code(rng, n=3, max_m=8, max_q=4)
            if is_ssc(code, 2).holds != is_ssc_naive(code, 2).holds:
                disagreements += 1
        assert disagreements == 0


def test_criterion_07_implications_and_equivalences() -> None:
    with criterion(7, "fpc => ssc => sc on 540 random codes; n=2 and n=3 laws"):
        rng = random.Random(20260807)
        checked = 0
        for n in (2, 3, 4):
            for _ in range(180):
                code = random_code(rng, n=n, max_m=8, max_q=3)
                checked += 1
                fpc = is_fpc(code, 2).holds
                ssc = is_ssc(code, 2).holds
                sc = is_sc(code, 2).holds
                assert not fpc or ssc
                assert not ssc or sc
                if n == 2:
                    assert sc == ssc
                if n == 3:
                    assert shortened_sc_check(code).holds == sc
        assert checked >= 500


def test_criterion_08_composition_and_tracing_round_trip() -> None:
    with criterion(8, "compose (3,18,4) family; 171 signal-level traces; < 10 s"):
        start = time.perf_counter()
        code = one_hot_compose(build_length3(4, 1))
        assert (code.n, code.M, code.q) == (12, 18, 2)
        assert is_ssc(code, 2).holds
        ctx = make_context(16, code.n, 0.1, 2026)
        traced = 0
        for r in (1, 2):
            for coalition in combinations(range(code.M), r):
                feasible = attack_feasible_set(ctx, code, coalition, eps=1e-6)
                report = ssc_trace(code, feasible, 2)
                assert not report.overflow
                assert report.colluders == frozenset(coalition)
                traced += 1
        assert traced == 171
        assert time.perf_counter() - start < 10.0


def test_criterion_09_tracer_cost_is_linear_in_code_area() -> None:
    with criterion(9, "tracer op counts fit a line in n*M within 10%"):
        points = []
        for q, s in ((4, 1), (8, 1), (12, 3)):
            code = one_hot_compose(build_length3(q, s))
            rng = random.Random(900 + q)
            coalitions = [(rng.randrange(code.M),) for _ in range(20)]
            coalitions += [tuple(rng.sample(range(code.M), 2)) for _ in range(40)]
            ops = []
            for coalition in coalitions:
                feasible = coalition_feasible_set(code, coalition)
                report = ssc_trace(code, feasible, 2)
                ops.append(report.ops)
                # hard ceiling: one touch per pinned row and position pair
                assert report.ops <= 2 * code.n * code.M
            points.append((code.n * code.M, sum(ops) / len(ops)))
        assert [p[0] for p in points] == [12 * 18, 24 * 70, 36 * 162]
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        assert slope > 0
        for x, y in points:
            predicted = slope * x + intercept
            assert abs(y - predicted) <= 0.10 * predicted


def test_criterion_10_signal_pipeline_equals_combinatorics() -> None:
    with criterion(10, "detector pipeline equals coalition feasible sets, 100 runs"):
        rng = random.Random(20260810)
        fixtures = []
        attempts = 0
        while len(fixtures) < 8 and attempts < 4000:
            attempts += 1
            code = random_code(rng, n=rng.randint(4, 7), max_m=10, max_q=2)
            if code.M >= 2 and is_ssc(code, 2).holds:
                ctx = make_context(code.n + 8, code.n, 0.1, rng.randint(0, 10**6))
                fixtures.append((code, ctx))
        assert len(fixtures) == 8
        for run in range(100):
            code, ctx = fixtures[run % len(fixtures)]
            size = rng.randint(1, min(5, code.M))
            coalition = tuple(sorted(rng.sample(range(code.M), size)))
            assert attack_feasible_set(
                ctx, code, coalition, eps=1e-6
            ) == coalition_feasible_set(code, coalition)


def test_criterion_11_every_table_row_is_certified() -> None:
    with criterion(11, "every size-table row has capture bound 3, so is SSC; < 120 s"):
        start = time.perf_counter()
        for q, expected in REPORTED_SIZES.items():
            code = build_length3(q, optimal_s(q).s)
            assert code.M == expected
            assert desc_cap_bound(code) == 3
        histogram = dict(capture_stats(code).histogram)  # q = 100
        assert histogram == {2: 62_163_900, 3: 1_111_725}
        assert time.perf_counter() - start < 120.0


def test_criterion_12_composed_q100_code_is_certified(tmp_path, capsys) -> None:
    with criterion(12, "composed (300,11250,2) code: verify ssc --t 2 holds; < 60 s"):
        source, binary = tmp_path / "q100.code", tmp_path / "q100-binary.code"
        assert cli.main(["construct", "--q", "100", "--out", str(source)]) == cli.EXIT_OK
        assert cli.main(["compose", str(source), "--out", str(binary)]) == cli.EXIT_OK
        capsys.readouterr()
        start = time.perf_counter()
        args = ["verify", str(binary), "--property", "ssc", "--t", "2", "--json"]
        assert cli.main(args) == cli.EXIT_OK
        elapsed = time.perf_counter() - start
        stats = json.loads(capsys.readouterr().out)["result"]["stats"]
        assert stats["capture_histogram"] == {"2": 62_163_900, "3": 1_111_725}
        assert elapsed < 60.0
