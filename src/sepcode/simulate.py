"""Noiseless spread-spectrum embedding, averaging attack, and detection.

Each user j receives the host signal plus a scaled watermark, y_j = x +
alpha * w_j, where w_j is the sum of the orthonormal basis signals u_i
selected by the 1-bits of the user's codeword.  Colluders average their
copies with equal weights.  The detector correlates the normalized residual
(y - x) / alpha against each basis signal, so statistic T(i) equals the
fraction of colluders carrying bit 1 at position i, exactly up to floating
point error in this noiseless model.  Thresholding T recovers the
coalition's feasible set, which the tracers consume.

Everything is double precision and deterministic for a fixed seed; contexts
are immutable after creation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .codes import BINARY_SETS, FeasibleSet

GRAM_TOLERANCE = 1e-9
_PIVOT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class EmbeddingContext:
    """Host signal, orthonormal watermark basis, and embedding strength.

    ``basis`` holds n orthonormal rows of dimension ``dim``; the Gram matrix
    stays within 1e-9 of the identity in max norm.
    """

    dim: int
    n: int
    basis: np.ndarray
    host: np.ndarray
    alpha: float
    seed: int


@dataclass(frozen=True, eq=False)
class DetectionStatistics:
    """Correlation vector T; entry i is the attacker fraction carrying bit 1."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt basis of the rows, by QR; refused on a tiny pivot.

    Rows of Q^T with the signs of diag(R) made positive are exactly what
    Gram-Schmidt would produce, and |R_ii| is the norm of row i's component
    outside the span of the rows before it.
    """
    q, r = np.linalg.qr(rows.T)
    pivots = np.diag(r)
    if np.min(np.abs(pivots)) < _PIVOT_FLOOR:
        raise RuntimeError("the basis draw hit a degenerate pivot")
    return np.ascontiguousarray((q * np.sign(pivots)).T)


def _gram_defect(basis: np.ndarray) -> float:
    gram = basis @ basis.T
    return float(np.max(np.abs(gram - np.eye(len(basis)))))


def make_context(dim: int, n: int, alpha: float, seed: int) -> EmbeddingContext:
    """Seeded context: random host signal and orthonormalized random basis.

    Deterministic for a fixed seed.  A draw with a tiny pivot (probability 0) is refused.
    """
    if n < 1:
        raise ValueError("need at least one basis signal")
    if n > dim:
        raise ValueError(f"cannot fit {n} orthonormal signals in dimension {dim}")
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"embedding strength alpha must be positive and finite, got {alpha}")
    rng = np.random.default_rng(seed)
    host = rng.standard_normal(dim)
    basis = _orthonormalize(rng.standard_normal((n, dim)))
    if _gram_defect(basis) >= GRAM_TOLERANCE:
        raise RuntimeError("basis failed to orthonormalize within tolerance")
    basis.setflags(write=False)
    host.setflags(write=False)
    return EmbeddingContext(
        dim=dim, n=n, basis=basis, host=host, alpha=float(alpha), seed=seed
    )


def embed(ctx: EmbeddingContext, word: Sequence[int]) -> np.ndarray:
    """Watermarked copy for one binary codeword: host + alpha * sum of 1-bit signals."""
    if len(word) != ctx.n:
        raise ValueError(f"codeword length {len(word)} does not match {ctx.n} signals")
    for sym in word:
        if sym not in (0, 1):
            raise ValueError(f"non-binary symbol {sym!r} in codeword")
    bits = np.asarray(word, dtype=float)
    return ctx.host + ctx.alpha * (bits @ ctx.basis)


def averaging_attack(signals: Iterable[np.ndarray]) -> np.ndarray:
    """Equal-weight mean of the colluders' copies."""
    stack = [np.asarray(sig, dtype=float) for sig in signals]
    if not stack:
        raise ValueError("averaging attack needs at least one signal")
    dim = stack[0].shape
    if any(sig.shape != dim for sig in stack):
        raise ValueError("signals must share one dimension")
    return np.mean(np.stack(stack), axis=0)


def correlate(ctx: EmbeddingContext, observed: np.ndarray) -> DetectionStatistics:
    """Detection statistics: correlation of (observed - host) / alpha with each signal."""
    observed = np.asarray(observed, dtype=float)
    if observed.shape != ctx.host.shape:
        raise ValueError(
            f"observed signal has shape {observed.shape}, expected {ctx.host.shape}"
        )
    residual = (observed - ctx.host) / ctx.alpha
    return DetectionStatistics(values=ctx.basis @ residual)


def threshold(stats: DetectionStatistics, eps: float = 1e-6) -> FeasibleSet:
    """Feasible set from statistics: {1} above 1-eps, {0} below eps, else {0,1}.

    For a t-member averaging attack eps must stay below 1/(2t) so the bands
    cannot swallow an interior value k/t; the default 1e-6 is far inside
    that for any realistic t.  A NaN or infinite statistic is refused.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie strictly between 0 and 0.5")
    # pins from Python floats: a nested np.where here left the CLI pipeline's
    # heap about 7 MB larger at q = 100 in most runs (peak RSS 70.6 -> 77.3 MB)
    high, low, values = 1 - eps, eps, np.asarray(stats.values).tolist()
    if not all(map(isfinite, values)):  # NaN fails both bands and would read as free
        position, v = next((p, v) for p, v in enumerate(values) if not isfinite(v))
        raise ValueError(f"detection statistic at position {position} is {v}, not finite")
    pins = [1 if v >= high else 0 if v <= low else 2 for v in values]
    return FeasibleSet(tuple(BINARY_SETS[pin] for pin in pins))
