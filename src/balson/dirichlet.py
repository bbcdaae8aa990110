"""Dirichlet distribution primitives on the probability simplex.

Sampling, analytic moments, moment-matched parameter recovery,
and the sparse mode rule (components whose concentration does not exceed
one are placed exactly at zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import MomentMatchingError, ModeUndefinedError

SIMPLEX_SUM_TOL = 1e-12
ALPHA_FLOOR = 1e-6


@dataclass(frozen=True)
class SimplexVector:
    """Point on the (K-1)-simplex: nonnegative weights summing to one, K >= 2."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 2:
            raise ValueError("simplex point must be 1-D with at least 2 components")
        if not np.all(np.isfinite(values)):
            raise ValueError("simplex point must be finite")
        if np.any(values < 0.0):
            raise ValueError("simplex components must be nonnegative")
        if abs(float(values.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError("simplex components must sum to 1 within 1e-12")


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution (all positive, K >= 2).

    Concentrations above one act like log-barrier weights pulling mass off
    the corresponding boundary face; at or below one the mode sits on it.
    """

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1 or alpha.shape[0] < 2:
            raise ValueError("concentration vector must be 1-D with at least 2 components")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("concentrations must be finite and strictly positive")

    def __len__(self):
        return self.alpha.shape[0]


def sample_batch(
    params: DirichletParams, rng: np.random.Generator, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``count`` simplex points as rows of a (count, K) array.

    Independent gamma variates with shapes alpha_i and unit scale,
    normalized by their row sum, taken as the product with a ones vector.
    With ``out``, a C-contiguous (count, K) array, the draws are written and
    normalized there, and ``out`` is returned.

    The flat prior Dir(1, ..., 1) draws unit exponentials instead: Gamma(1)
    is the unit exponential, and numpy's gamma sampler at shape 1 is its
    exponential sampler. Both calls yield the same values and leave the
    generator in the same state, so the flat path is exact, bit for bit,
    and skips the gamma sampler's broadcast over per-element shapes.
    """
    k = len(params)
    flat = bool(np.all(params.alpha == 1.0))

    def draw(rows, into=None):
        if flat:
            return rng.standard_exponential(size=(rows, k), out=into)
        return rng.standard_gamma(params.alpha, size=(rows, k), out=into)

    # Row sums as one matrix-vector product, several times faster than
    # draws.sum(axis=1) on short rows.
    ones = np.ones(k)
    draws = draw(count, out)
    totals = draws @ ones
    # Only reachable when every concentration is tiny: all gammas underflow.
    for _ in range(100):
        dead = totals == 0.0
        if not dead.any():
            break
        draws[dead] = draw(int(dead.sum()))
        totals = draws @ ones
    else:
        raise MomentMatchingError("gamma draws underflowed to zero for every component")
    return np.divide(draws, totals[:, None], out=draws)


def moments(params: DirichletParams) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and variance per component.

    mean_i = alpha_i / alpha0,
    var_i  = alpha_i (alpha0 - alpha_i) / (alpha0^2 (alpha0 + 1)).
    """
    alpha = params.alpha
    alpha0 = alpha.sum()
    mean = alpha / alpha0
    variance = alpha * (alpha0 - alpha) / (alpha0**2 * (alpha0 + 1.0))
    return mean, variance


def match_moments_per_dim(mean, variance) -> DirichletParams:
    """Recover concentrations dimension by dimension: alpha_i = m_i alpha0_i.

    Each dimension's mean and variance give its own total concentration
    alpha0_i = m_i (1 - m_i) / v_i - 1; no single total is enforced, so
    anisotropy in the moments survives: dimensions whose variance implies
    low concentration keep small alpha_i (possibly below one) while tightly
    determined dimensions grow large. On analytic Dirichlet moments every
    alpha0_i equals alpha0, so the fit is exact. Dimensions with unusable
    estimates fall to the positivity floor.
    """
    m = np.asarray(mean, dtype=np.float64)
    v = np.asarray(variance, dtype=np.float64)
    if m.shape != v.shape or m.ndim != 1 or m.shape[0] < 2:
        raise ValueError("mean and variance must be 1-D vectors of equal length >= 2")
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("variances must be finite and nonnegative")
    total = float(m.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError("means must sum to 1 within 1e-6")
    m = m / total
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = m * (m * (1.0 - m) / v - 1.0)
    usable = np.isfinite(alpha) & (alpha > 0.0)
    if not usable.any():
        raise MomentMatchingError("moment matching degenerate: no usable dimension")
    alpha = np.where(usable, alpha, ALPHA_FLOOR)
    return DirichletParams(np.clip(alpha, ALPHA_FLOOR, 1e14))


def mode(params: DirichletParams) -> SimplexVector:
    """Sparse mode: omega_i = (alpha_i - 1) / sum_{alpha_j > 1} (alpha_j - 1).

    Components with alpha_i <= 1 are exactly zero. Raises
    :class:`ModeUndefinedError` when no concentration exceeds one.
    """
    alpha = params.alpha
    above = alpha > 1.0
    if not above.any():
        raise ModeUndefinedError("mode undefined: no concentration exceeds 1")
    denom = float((alpha[above] - 1.0).sum())
    omega = np.where(above, (alpha - 1.0) / denom, 0.0)
    return SimplexVector(omega)
