from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from conftest import ZERO_PLUS_UNITS, random_code
from sepcode.simulate import (
    DetectionStatistics,
    averaging_attack,
    correlate,
    embed,
    make_context,
    threshold,
)
from sepcode.trace import coalition_feasible_set
from sepcode.codes import FeasibleSet


def fs(*sets) -> FeasibleSet:
    return FeasibleSet(tuple(frozenset(s) for s in sets))


# ---------------------------------------------------------------- contexts


def test_context_basis_is_orthonormal() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    gram = ctx.basis @ ctx.basis.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9


def test_square_context_is_valid() -> None:
    ctx = make_context(3, 3, 0.1, 1)
    gram = ctx.basis @ ctx.basis.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9


def test_context_rejects_overfull_basis() -> None:
    with pytest.raises(ValueError, match="dimension"):
        make_context(2, 3, 0.1, 1)


def test_context_rejects_bad_alpha() -> None:
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            make_context(8, 3, alpha, 1)


def test_context_is_deterministic_per_seed() -> None:
    a = make_context(16, 5, 0.1, 42)
    b = make_context(16, 5, 0.1, 42)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.host, b.host)
    c = make_context(16, 5, 0.1, 43)
    assert not np.array_equal(a.basis, c.basis)


def test_context_basis_is_gram_schmidt_of_the_seeded_draw() -> None:
    # the seed's first draw is the host, its second the rows to orthonormalize
    for dim, n, seed in ((8, 3, 7), (5, 5, 1), (40, 12, 3)):
        rng = np.random.default_rng(seed)
        rng.standard_normal(dim)
        rows = rng.standard_normal((n, dim))
        expected = []
        for v in rows:
            for u in expected:
                v = v - (u @ v) * u
            expected.append(v / np.linalg.norm(v))
        basis = make_context(dim, n, 0.1, seed).basis
        assert np.max(np.abs(basis - np.array(expected))) < 1e-12


def test_a_draw_with_a_tiny_pivot_is_refused_without_a_redraw() -> None:
    qr, draws = np.linalg.qr, []

    def tiny_pivot(a):
        draws.append(a.shape)
        q, r = qr(a)
        r[-1, -1] = 1e-13
        return q, r

    with mock.patch.object(np.linalg, "qr", tiny_pivot):
        with pytest.raises(RuntimeError, match="degenerate pivot"):
            make_context(8, 3, 0.1, 7)
    assert draws == [(8, 3)]


def test_context_arrays_are_read_only() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    with pytest.raises(ValueError):
        ctx.basis[0, 0] = 1.0


# ------------------------------------------------------------------- embed


def test_embedding_all_zero_word_returns_the_host() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    assert np.array_equal(embed(ctx, (0, 0, 0)), ctx.host)


def test_embedding_single_bit_adds_one_scaled_signal() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    expected = ctx.host + 0.1 * ctx.basis[0]
    assert np.allclose(embed(ctx, (1, 0, 0)), expected, atol=1e-12)


def test_embedding_correlates_back_to_the_bits() -> None:
    ctx = make_context(16, 6, 0.05, 11)
    rng = random.Random(600)
    for _ in range(10):
        word = tuple(rng.randint(0, 1) for _ in range(6))
        stats = correlate(ctx, embed(ctx, word))
        assert np.max(np.abs(stats.values - np.asarray(word))) < 1e-9


def test_embedding_rejects_non_binary_words() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    with pytest.raises(ValueError, match="non-binary"):
        embed(ctx, (0, 2, 0))
    with pytest.raises(ValueError, match="length"):
        embed(ctx, (0, 1))


# -------------------------------------------------------- averaging attack


def test_average_of_one_signal_is_itself() -> None:
    sig = np.arange(5.0)
    assert np.array_equal(averaging_attack([sig]), sig)


def test_average_of_equal_signals_is_unchanged() -> None:
    sig = np.arange(5.0)
    assert np.allclose(averaging_attack([sig, sig.copy()]), sig)


def test_average_rejects_empty_and_ragged_input() -> None:
    with pytest.raises(ValueError, match="at least one"):
        averaging_attack([])
    with pytest.raises(ValueError, match="dimension"):
        averaging_attack([np.zeros(3), np.zeros(4)])


def test_unit_pair_attack_correlates_to_half_half_zero() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    coalition = (1, 2)
    signals = [embed(ctx, ZERO_PLUS_UNITS.words[i]) for i in coalition]
    stats = correlate(ctx, averaging_attack(signals))
    assert np.max(np.abs(stats.values - np.array([0.5, 0.5, 0.0]))) < 1e-9


# --------------------------------------------------------------- correlate


def test_correlating_the_host_gives_zero() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    stats = correlate(ctx, ctx.host)
    assert np.max(np.abs(stats.values)) < 1e-12


def test_correlate_rejects_dimension_mismatch() -> None:
    ctx = make_context(8, 3, 0.1, 7)
    with pytest.raises(ValueError, match="shape"):
        correlate(ctx, np.zeros(7))


# --------------------------------------------------------------- threshold


def test_threshold_bands() -> None:
    stats = DetectionStatistics(values=np.array([1.0, 0.0, 0.5]))
    assert threshold(stats, 1e-6) == fs({1}, {0}, {0, 1})


def test_threshold_tolerates_rounding_at_the_edges() -> None:
    stats = DetectionStatistics(values=np.array([1.0 - 1e-9, 1e-9, 0.25]))
    assert threshold(stats, 1e-6) == fs({1}, {0}, {0, 1})
    eps = 1e-6
    stats = DetectionStatistics(values=np.array([1 - eps, eps, 0.5]))
    assert threshold(stats, eps) == fs({1}, {0}, {0, 1})


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_threshold_refuses_a_statistic_that_is_not_finite(bad) -> None:
    # NaN lies in neither band: unrefused it read as a free position, {0, 1}
    for at in range(3):
        values = [1.0, 0.0, 0.5]
        values[at] = bad
        with pytest.raises(ValueError, match=f"position {at} is {bad}, not finite"):
            threshold(DetectionStatistics(values=np.array(values)))


def test_threshold_rejects_out_of_range_eps() -> None:
    stats = DetectionStatistics(values=np.array([0.5]))
    for eps in (0.0, 0.5, 1.0, -0.1):
        with pytest.raises(ValueError, match="eps"):
            threshold(stats, eps)


# ----------------------------------------------------------- full pipeline


def attack_feasible_set(ctx, code, coalition, eps=1e-6) -> FeasibleSet:
    signals = [embed(ctx, code.words[i]) for i in coalition]
    return threshold(correlate(ctx, averaging_attack(signals)), eps)


def test_pipeline_matches_combinatorial_feasible_set_exhaustively() -> None:
    ctx = make_context(8, 3, 0.1, 13)
    for r in range(1, ZERO_PLUS_UNITS.M + 1):
        for coalition in combinations(range(ZERO_PLUS_UNITS.M), r):
            assert attack_feasible_set(
                ctx, ZERO_PLUS_UNITS, coalition
            ) == coalition_feasible_set(ZERO_PLUS_UNITS, coalition)


def test_pipeline_matches_on_random_binary_codes() -> None:
    rng = random.Random(601)
    for _ in range(15):
        code = random_code(rng, n=rng.randint(3, 6), max_m=10, max_q=2)
        ctx = make_context(code.n + 4, code.n, 0.1, rng.randint(0, 10**6))
        size = rng.randint(1, min(5, code.M))
        coalition = tuple(sorted(rng.sample(range(code.M), size)))
        assert attack_feasible_set(ctx, code, coalition) == coalition_feasible_set(
            code, coalition
        )
