"""Polynomial model, residual sum of squares, and the signed-vector reduction.

The fitting problem lives on the scaled simplex: coefficients are
theta = C * omega with omega a simplex point, so the L1 budget
sum theta_i = C holds by construction. Residual noise has unit variance
(see :class:`ModelSpec`). Every solve and baseline evaluates RSS through
:class:`ResidualForm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import BalsonError


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


def integral(value, name: str) -> int:
    """``value`` as an int, for a config's count and seed fields.

    An integral number, such as JSON's 1e6, becomes its int; anything else,
    1.5, inf, NaN, a string or null, raises ValueError.
    """
    try:
        whole = int(value) == value
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer")
    return int(value)


def seed_field(value, name: str) -> int:
    """``value`` as a config's seed field: an :func:`integral` value in [0, 2^64).

    Raises ValueError "<name> must fit in 64 bits" otherwise, so a bad seed
    fails where it is set, not later inside numpy's seeding.
    """
    seed = integral(value, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must fit in 64 bits")
    return seed


@dataclass(frozen=True)
class ModelSpec:
    """Polynomial order K (number of coefficients) and L1 budget C.

    The likelihood, :meth:`~balson.samplers.Problem.log_likelihood`, assumes
    unit noise variance. For noise with a known standard deviation sigma, fit
    targets y / sigma with scale C / sigma and multiply the fitted theta by sigma.
    """

    order: int
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "order", integral(self.order, "order"))
        if self.order < 1:
            raise ValueError("order must be an integer >= 1")
        try:
            budget_ok = self.scale > 0.0 and np.isfinite(self.scale)
        except TypeError:  # a JSON string or null
            budget_ok = False
        if not budget_ok:
            raise ValueError("budget must be a positive finite number")


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


def design_matrix(xs, order: int) -> np.ndarray:
    """Row-per-observation monomial design [1, x, ..., x^(order-1)], shape (N, order).

    Each column is the previous one times x, the product np.vander takes
    too; np.vander loops per row, 3x slower at N = 10^5, order 5 (numpy 2.4).
    """
    xs = np.asarray(xs, dtype=np.float64)
    cols = np.empty((xs.shape[0], order))
    cols[:, 0] = 1.0
    for i in range(1, order):
        np.multiply(cols[:, i - 1], xs, out=cols[:, i])
    return cols


def predict(theta, x):
    """Model value theta . [1, x, ..., x^(K-1)]; x may be a scalar or array."""
    theta = np.asarray(theta, dtype=np.float64)
    values = design_matrix(np.atleast_1d(x), theta.shape[0]) @ theta
    return float(values[0]) if np.ndim(x) == 0 else values


def _power_sums(xs: np.ndarray, ys: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram and X'y of the design [1, x, ..., x^(order-1)] from power sums.

    G[i, j] = S[i + j] with S[m] = sum x^m, m < 2 order - 1, a Hankel
    matrix, and (X'y)[m] = sum x^m y, m < order. One buffer holds the
    running power x^m and the other the running x^m y; each is multiplied
    by x in place and summed, so the call allocates two length-N arrays.
    """
    sums = np.empty(2 * order - 1)
    xty = np.empty(order)
    power, weighted = xs.copy(), ys.copy()
    sums[0] = xs.shape[0]
    # np.add.reduce is ndarray.sum (pairwise) without its Python-level
    # wrapper, whose overhead is most of the cost at N = 100.
    xty[0] = np.add.reduce(weighted)
    for m in range(1, 2 * order - 1):
        if m > 1:
            np.multiply(power, xs, out=power)
        sums[m] = np.add.reduce(power)
        if m < order:
            np.multiply(weighted, xs, out=weighted)
            xty[m] = np.add.reduce(weighted)
    span = np.arange(order)
    return sums[span[:, None] + span], xty


class ResidualForm:
    """Residual sum of squares against a fixed design, for many coefficient rows.

    Precomputes the Gram matrix so each evaluation costs O(K^2) instead of
    O(N K); values are clipped at zero to absorb cancellation. Keeps only the
    sufficient statistics (Gram, X'y, y'y), never the N-row design or targets.

    There are two ways in. ``design`` is an explicit (N, K) design, whose
    Gram and X'y are the products X'X and X'y. With ``order`` K, ``design``
    is instead the 1-D inputs x of the polynomial design
    [1, x, ..., x^(K-1)], whose statistics come from power sums (see
    :func:`_power_sums`) in O(N K) time and two length-N buffers, so
    neither the N x K design nor the (2K - 1) x N powers are formed. Every
    solve and baseline on a dataset takes the polynomial way; the explicit
    way serves callers of ``ip_solve`` that hold a design of their own.

    With ``split`` true the form is that of the signed split design [X, -X],
    built from the K-column statistics as [[G, -G], [-G, G]] and
    [X'y, -X'y], so the N x 2K design is never formed.

    Raises :class:`BalsonError` if the Gram or X'y is non-finite, not y'y:
    solvers take those two as finite, and the barrier core checks its target.
    """

    def __init__(
        self,
        design: np.ndarray,
        targets: np.ndarray,
        split: bool = False,
        *,
        order: int | None = None,
    ):
        if order is None:
            gram = design.T @ design
            xty = design.T @ targets
        else:
            gram, xty = _power_sums(np.asarray(design, dtype=np.float64), targets, order)
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(xty))):
            raise BalsonError("non-finite Gram or X'y: the design overflows")
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


def merge_signed(theta_nonneg) -> np.ndarray:
    """Collapse a split nonnegative vector back: theta_i = pos_i - neg_i."""
    v = np.asarray(theta_nonneg, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError("split vector must be 1-D with even length")
    if np.any(v < 0.0):
        raise ValueError("split vector components must be nonnegative")
    half = v.shape[0] // 2
    return v[:half] - v[half:]
