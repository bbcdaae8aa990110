"""Polynomial model, Gaussian log-likelihood, and the signed-vector reduction.

The fitting problem lives on the scaled simplex: coefficients are
theta = C * omega with omega a simplex point, so the L1 budget
sum theta_i = C holds by construction. Residual noise has unit variance.
To fit data whose noise has a known standard deviation sigma, pass targets
y / sigma and budget C / sigma, then multiply the fitted theta by sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletParams, SimplexVector, log_density

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Dataset:
    """Paired scalar observations. Empty datasets are valid (posterior = prior)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValueError("inputs and targets must be 1-D and the same length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset values must be finite")

    def __len__(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ModelSpec:
    """Polynomial order K (number of coefficients) and L1 budget C.

    The likelihood assumes unit noise variance. For noise with a known
    standard deviation sigma, fit targets y / sigma with scale C / sigma and
    multiply the fitted theta by sigma.
    """

    order: int
    scale: float = 1.0

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 1:
            raise ValueError("order must be an integer >= 1")
        object.__setattr__(self, "order", int(self.order))
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError("scale must be a positive finite budget")


@dataclass(frozen=True)
class ParameterVector:
    """Model coefficients; nonnegative whenever produced by the simplex path."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1:
            raise ValueError("theta must be 1-D")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")

    def __len__(self):
        return self.theta.shape[0]


def basis(x: float, order: int) -> np.ndarray:
    """Monomial features [1, x, ..., x^(order-1)] by iterated multiplication."""
    if order < 1:
        raise ValueError("order must be >= 1")
    out = np.empty(order, dtype=np.float64)
    out[0] = 1.0
    for i in range(1, order):
        out[i] = out[i - 1] * x
    return out


def design_matrix(xs, order: int) -> np.ndarray:
    """Row-per-observation monomial design, shape (N, order)."""
    xs = np.asarray(xs, dtype=np.float64)
    cols = np.empty((xs.shape[0], order), dtype=np.float64)
    if xs.shape[0] == 0:
        return cols
    cols[:, 0] = 1.0
    for i in range(1, order):
        cols[:, i] = cols[:, i - 1] * xs
    return cols


def predict(theta, x):
    """Model value theta . [1, x, ..., x^(K-1)]; x may be a scalar or array."""
    theta = theta.theta if isinstance(theta, ParameterVector) else np.asarray(theta, dtype=np.float64)
    if np.ndim(x) == 0:
        return float(theta @ basis(float(x), theta.shape[0]))
    return design_matrix(x, theta.shape[0]) @ theta


class ResidualForm:
    """Residual sum of squares against a fixed design, for many coefficient rows.

    Precomputes the Gram matrix so each evaluation costs O(K^2) instead of
    O(N K); values are clipped at zero to absorb cancellation. Keeps only the
    sufficient statistics (Gram, X'y, y'y), never the N-row design or targets.

    With ``split`` true the form is that of the signed split design [X, -X],
    built from the K-column statistics as [[G, -G], [-G, G]] and
    [X'y, -X'y], so the N x 2K design is never formed.
    """

    def __init__(self, design: np.ndarray, targets: np.ndarray, split: bool = False):
        gram = design.T @ design
        xty = design.T @ targets
        if split:
            gram = np.block([[gram, -gram], [-gram, gram]])
            xty = np.concatenate([xty, -xty])
        self.gram = gram
        self.xty = xty
        self.yty = float(targets @ targets)

    def rss(
        self,
        thetas: np.ndarray,
        out: np.ndarray | None = None,
        work: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """RSS of each row of ``thetas`` (a float for a single 1-D theta).

        For rows x K ``thetas``, ``out`` (rows,) receives the result and
        ``work`` = (rows x K, rows) buffers hold theta G and the quadratic
        term; given both, the call allocates nothing. The buffered and
        unbuffered results are the same bits.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        single = thetas.ndim == 1
        if single:
            thetas = thetas[None, :]
        product, quad = (None, None) if work is None else work
        quad = np.einsum("ij,ij->i", np.matmul(thetas, self.gram, out=product), thetas, out=quad)
        # y'y - 2 theta'X'y + quad, in place; scaling by -2 is exact.
        total = np.matmul(thetas, self.xty, out=out)
        total *= -2.0
        total += self.yty
        total += quad
        np.maximum(total, 0.0, out=total)
        return float(total[0]) if single else total


def log_likelihood(data: Dataset, omega: SimplexVector, spec: ModelSpec) -> float:
    """Gaussian log-likelihood of the residuals at theta = C * omega.

    Equals -(N/2) ln 2pi - RSS/2 with unit noise variance.
    """
    if len(omega) != spec.order:
        raise ValueError("omega dimension must equal the model order")
    design = design_matrix(data.inputs, spec.order)
    resid = data.targets - design @ (spec.scale * omega.values)
    return -0.5 * len(data) * LOG_2PI - 0.5 * float(resid @ resid)


def log_posterior_unnorm(
    data: Dataset, omega: SimplexVector, prior: DirichletParams, spec: ModelSpec
) -> float:
    """Unnormalized log posterior: log-likelihood plus log Dirichlet prior."""
    return log_likelihood(data, omega, spec) + log_density(prior, omega)


def rescale(omega: SimplexVector, budget: float) -> ParameterVector:
    """Map a simplex point back to coefficients: theta_i = C * omega_i."""
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    return ParameterVector(budget * omega.values)


def split_signed(theta_signed) -> ParameterVector:
    """Double a signed vector into nonnegative positive/negative parts."""
    v = np.asarray(theta_signed, dtype=np.float64)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValueError("signed coefficients must be a finite 1-D vector")
    return ParameterVector(np.concatenate([np.maximum(v, 0.0), np.maximum(-v, 0.0)]))


def merge_signed(theta_nonneg) -> np.ndarray:
    """Collapse a split nonnegative vector back: theta_i = pos_i - neg_i."""
    v = theta_nonneg.theta if isinstance(theta_nonneg, ParameterVector) else np.asarray(theta_nonneg, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError("split vector must be 1-D with even length")
    if np.any(v < 0.0):
        raise ValueError("split vector components must be nonnegative")
    half = v.shape[0] // 2
    return v[:half] - v[half:]
