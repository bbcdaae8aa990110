"""Reference solvers: budgeted LASSO, the interior-point problem (IP), Bayesian LASSO.

The RS envelope floor, LASSO and IP share one exact constrained-QP core,
:func:`_simplex_qp`, on the sufficient statistics of a
:class:`~balson.model.ResidualForm`. Implemented at the fidelity needed for
head-to-head metric comparisons against the Dirichlet-posterior solver,
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv, dtrtrs

from .exceptions import BalsonError
from .model import (
    Dataset,
    ModelSpec,
    ParameterVector,
    ResidualForm,
    integral,
    merge_signed,
)


@dataclass(frozen=True)
class LassoParams:
    """Deprecated and ignored: the penalty search of the former LASSO solver.

    :func:`lasso_fit` now solves the constrained form directly on the QP
    core, with ``BaselineConfig.ip``'s tolerance, so there is no penalty
    to search. The class and ``BaselineConfig.lasso`` remain only so that
    existing code and configs still construct.
    """

    lambda_lo: float = 0.0
    lambda_hi: float | None = None  # None: 2 * max|X'y|, which fully shrinks
    budget_tol: float = 1e-4
    max_bisections: int = 200
    max_sweeps: int = 10_000
    sweep_tol: float = 1e-10


@dataclass(frozen=True)
class IpParams:
    """The certificate that the QP core's answer meets, relative to max(RSS, 1).

    The answer is exact up to rounding. Its Frank-Wolfe gap, an upper bound on
    RSS(theta) minus the minimum, must be at most ``gap_tol`` max(RSS, 1) plus
    the rounding of the gap's terms, or the core raises (see :func:`_simplex_qp`).
    """

    gap_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.gap_tol < math.inf:
            raise ValueError("gap_tol must be positive and finite")


# Active-set steps per coordinate, and ulps per coordinate below which a negative
# bound multiplier counts as rounding (see _simplex_qp).
_STEP_CAP, _ROUNDING_ULPS = 50, 1e3


@dataclass(frozen=True)
class GibbsParams:
    """Chain length and shrinkage hyperprior for the Bayesian LASSO."""

    iterations: int = 6000
    burn_in: int = 1000
    hyper_shape: float = 1.0
    hyper_rate: float = 0.1

    def __post_init__(self):
        for name in ("iterations", "burn_in"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if not (0.0 < self.hyper_shape < math.inf and 0.0 < self.hyper_rate < math.inf):
            raise ValueError("hyperprior parameters must be positive and finite")


@dataclass(frozen=True)
class BaselineConfig:
    lasso: LassoParams = field(default_factory=LassoParams)
    ip: IpParams = field(default_factory=IpParams)
    gibbs: GibbsParams = field(default_factory=GibbsParams)


def soft_threshold(z: float, threshold: float) -> float:
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


def lasso_coordinate_descent(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Cyclic coordinate descent on the penalised form ||y - X theta||^2 + lam ||theta||_1.

    Its solution at penalty lam is :func:`lasso_fit`'s at budget
    C = ||theta_lam||_1, but ``lasso_fit`` does not call it, so it serves as
    an independent reference. The quadratic term is un-halved, so each
    coordinate update soft-thresholds at lam/2. Starts from zero and raises
    :class:`BalsonError` if 10,000 sweeps pass before the largest coordinate
    move falls below 1e-10.
    """
    form = ResidualForm(design, targets)
    theta = np.zeros(form.xty.shape[0])
    for _ in range(10_000):
        biggest_move = 0.0
        for j, gjj in enumerate(np.diag(form.gram)):
            if gjj == 0.0:
                continue
            rho = form.xty[j] - float(form.gram[j] @ theta) + gjj * theta[j]
            new = soft_threshold(rho, 0.5 * lam) / gjj
            biggest_move = max(biggest_move, abs(new - theta[j]))
            theta[j] = new
        if biggest_move <= 1e-10:
            return theta
    raise BalsonError(
        f"lasso coordinate descent did not converge; residual norm {math.sqrt(form.rss(theta)):.6g}"
    )


def lasso_fit(data: Dataset, spec: ModelSpec, cfg: BaselineConfig) -> np.ndarray:
    """Budget-matched LASSO in its constrained form: min RSS s.t. ||theta||_1 <= C.

    Splitting theta = theta+ - theta- with both parts nonnegative turns the
    L1 ball into {theta+, theta- >= 0, sum <= C} on the design [X, -X], which
    is IP's problem (Tibshirani 1996), on the split
    :class:`~balson.model.ResidualForm` that the signed BALSON solve uses.
    The certificate's tolerance is ``cfg.ip``'s; ``cfg.lasso`` is ignored.
    """
    form = ResidualForm(data.inputs, data.targets, True, order=spec.order)
    return merge_signed(_within_budget(form, spec.scale, cfg.ip))


def ip_fit(data: Dataset, spec: ModelSpec, cfg: BaselineConfig) -> ParameterVector:
    """The paper's IP baseline: the exact minimiser of RSS s.t. theta >= 0, sum theta <= C."""
    return ParameterVector(ip_solve(data.inputs, data.targets, spec.scale, cfg.ip, order=spec.order))


def ip_solve(
    design: np.ndarray,
    targets: np.ndarray,
    budget: float,
    params: IpParams,
    *,
    order: int | None = None,
) -> np.ndarray:
    """The exact minimiser of RSS s.t. theta >= 0, sum theta <= C, as :func:`ip_fit`.

    ``design`` and ``order`` are :class:`~balson.model.ResidualForm`'s.
    """
    return _within_budget(ResidualForm(design, targets, order=order), budget, params)


def _within_budget(form: ResidualForm, budget: float, params: IpParams) -> np.ndarray:
    """min RSS(theta) s.t. theta >= 0, sum theta <= C, as the core's equality simplex.

    One slack coordinate with a zero Gram row and column and a zero X'y
    entry takes up the budget that theta leaves unused, at no cost in RSS.
    """
    k = form.xty.shape[0]
    gram = np.zeros((k + 1, k + 1))
    gram[:k, :k] = form.gram
    return _simplex_qp(gram, np.append(form.xty, 0.0), form.yty, budget, params.gap_tol)[0][:k]


def _simplex_qp(
    gram: np.ndarray, xty: np.ndarray, yty: float, budget: float, gap_tol: float
) -> tuple[np.ndarray, float]:
    """min RSS(theta) s.t. theta >= 0, sum theta = C, from RSS's sufficient statistics.

    RSS(theta) = y'y - 2 theta'X'y + theta'G theta, with gradient g. A primal
    active-set method (Nocedal & Wright 2006, Alg. 16.3), exact after
    finitely many steps, starts at the vertex C e_i of least RSS. Each step
    solves [[2G_FF, 1], [1', 0]] [p; nu] = [-g_F; 0] on the free set F by
    least squares, so a singular G_FF does no harm, and goes along p as far
    as the bounds allow; a blocking coordinate leaves F. A step that no bound
    blocks ends at the minimiser of RSS on F's face, where the same nu gives
    the bound multipliers g_i + nu: the method stops if all are nonnegative
    up to rounding, which scales with theta, not with C, and otherwise frees
    the most negative. If the next step is blocked at length 0 by the
    coordinate just freed, its multiplier was rounding, and the method stops
    too. The answer is scaled to sum to C (1 - K eps), so that its sum stays
    below C.

    The answer must pass a Frank-Wolfe certificate: the gap g'theta - C min g,
    an upper bound on RSS(theta) minus the minimum, is at most ``gap_tol``
    max(RSS, 1) + 2 K eps C (C max|2G| + max|2X'y|), the rounding of its
    terms. Returns theta and the bound RSS(theta) - gap on the minimum.
    Raises :class:`BalsonError` if y'y or those terms are not finite, at the
    step cap, or if the certificate fails.
    """
    k = gram.shape[0]
    eps = np.finfo(float).eps
    gram2, xty2 = 2.0 * gram, 2.0 * xty
    abs_gram2, abs_xty2 = np.abs(gram2), np.abs(xty2)
    terms = budget * (budget * abs_gram2.max() + abs_xty2.max())
    if not math.isfinite(yty + terms):
        raise BalsonError("simplex QP stop target is inf: the statistics or budget overflow")
    rounding = _ROUNDING_ULPS * k * eps
    theta, free = np.zeros(k), np.zeros(k, dtype=bool)
    start = np.argmin(budget * (0.5 * budget * np.diag(gram2) - xty2))
    theta[start], free[start], freed = budget, True, -1
    grad = gram2 @ theta - xty2
    for _ in range(_STEP_CAP * k):
        idx = np.flatnonzero(free)
        kkt = np.ones((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1], kkt[-1, -1] = gram2[np.ix_(idx, idx)], 0.0
        solution = np.linalg.lstsq(kkt, np.append(-grad[idx], 0.0), rcond=None)[0]
        step, nu = solution[:-1], solution[-1]
        shrinking = step < 0.0
        ratios = theta[idx[shrinking]] / -step[shrinking]
        length = float(ratios.min(initial=1.0))
        theta[idx] = np.maximum(theta[idx] + length * step, 0.0)
        if length < 1.0:
            leaving = idx[shrinking][np.argmin(ratios)]
            if length == 0.0 and leaving == freed:
                break  # freed's negative multiplier was rounding: cycling would follow
            theta[leaving], free[leaving] = 0.0, False
        grad = gram2 @ theta - xty2
        if length == 1.0:
            multipliers = grad + nu
            multipliers[free | (multipliers >= -rounding * (abs_gram2 @ theta + abs_xty2 + abs(nu)))] = 0.0
            if multipliers.min() == 0.0:
                break
            freed = np.argmin(multipliers)
            free[freed] = True
    else:
        raise BalsonError(f"simplex QP did not converge in {_STEP_CAP * k} active-set steps")
    theta *= budget * (1.0 - k * eps) / theta.sum()
    grad = gram2 @ theta - xty2
    rss = yty + 0.5 * float(theta @ (grad - xty2))
    gap = float(grad @ theta) - budget * float(grad.min())
    if not gap <= gap_tol * max(rss, 1.0) + 2.0 * k * eps * terms:
        raise BalsonError(f"simplex QP answer failed its certificate: Frank-Wolfe gap {gap:.3g}")
    return theta, rss - gap


# Gibbs iterations drawn per generator call: a few hundred KB of draws at K = 10.
_GIBBS_BLOCK = 512


def _inverse_gaussian(mean: float, shape: float, normal: float, uniform: float) -> float:
    """IG(mean, shape) from a N(0, 1) and a U(0, 1) value (Michael, Schucany & Haas 1976).

    ``Generator.wald``'s arithmetic: fed the normal and then the uniform that wald
    draws, it gives wald's bits. A zero normal gives the mean."""
    y = mean * normal * normal
    x = mean * (1.0 - 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * shape / y))) if y > 0.0 else mean
    return x if uniform <= mean / (mean + x) else mean * mean / x


def bayesian_lasso_fit(
    data: Dataset,
    spec: ModelSpec,
    cfg: BaselineConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gibbs sampler for the Laplace-prior linear model; returns the posterior mean.

    Scale-mixture form with unit noise variance: coefficients from their full
    conditional Gaussian, inverse latent scales from inverse-Gaussian full
    conditionals, and the squared shrinkage weight from its gamma full
    conditional under a Gamma(shape, rate) hyperprior (Park & Casella 2008).

    Per iteration, one ``dposv`` factors P = G + diag(1/tau^2) = LL' and gives
    P^-1 X'y, and one ``dtrtrs`` adds L^-T z. :func:`_inverse_gaussian` turns a
    normal nu and a uniform u into each 1/tau_i^2, tau^2 is clipped to
    [1e-10, 1e10], and lam^2 = g / (rate + sum(tau^2)/2). z, nu, u and
    g ~ Gamma(K + shape, 1) each have a child generator seeded from ``rng``,
    which is required (the bench passes one per row from its
    :func:`~balson.bench.method_seed`), drawn ``_GIBBS_BLOCK`` iterations at
    a time, so the block size changes no bit. Raises :class:`BalsonError` if
    the Gram or X'y is non-finite, or if P is not positive definite."""
    params = cfg.gibbs
    form = ResidualForm(data.inputs, data.targets, order=spec.order)
    k = spec.order
    normals, ig_normals, uniforms, gammas = map(np.random.default_rng, rng.integers(2**63, size=4).tolist())

    precision = np.array(form.gram, order="F")
    diag = precision.ravel(order="F")[:: k + 1]  # a writable view of P's diagonal
    gram_diag = diag.tolist()
    next_diag = [d + 1.0 for d in gram_diag]  # tau^2 = 1 at the start
    lam_sq = 1.0
    total = np.zeros(k)
    for start in range(0, params.iterations, _GIBBS_BLOCK):
        n = min(_GIBBS_BLOCK, params.iterations - start)
        block = zip(
            normals.standard_normal((n, k)),
            ig_normals.standard_normal((n, k)).tolist(),
            uniforms.random((n, k)).tolist(),
            gammas.standard_gamma(k + params.hyper_shape, n).tolist(),
        )
        for it, (z, nus, us, g) in enumerate(block, start):
            diag[:] = next_diag
            chol, beta, info = dposv(precision, form.xty, lower=1)
            if info > 0:
                raise BalsonError(f"singular conditional covariance at iteration {it}")
            beta += dtrtrs(chol, z, lower=1, trans=1)[0]
            scale = math.sqrt(lam_sq)
            next_diag, tau_sq_sum = [], 0.0
            for b, d, nu, u in zip(beta.tolist(), gram_diag, nus, us):
                b = abs(b)
                x = _inverse_gaussian(scale / (b if b > 1e-12 else 1e-12), lam_sq, nu, u)
                t = 1.0 / x if x > 0.0 else 1e10  # tau^2, clipped
                t = 1e10 if t > 1e10 else 1e-10 if t < 1e-10 else t
                next_diag.append(d + 1.0 / t)
                tau_sq_sum += t
            lam_sq = g / (params.hyper_rate + 0.5 * tau_sq_sum)
            if it >= params.burn_in:
                total += beta
    return total / (params.iterations - params.burn_in)
