"""Reference solvers: budgeted LASSO, log-barrier interior point, Bayesian LASSO.

The RS envelope floor, LASSO and IP share one constrained-QP core,
:func:`_barrier_qp`, on the sufficient statistics of a
:class:`~balson.model.ResidualForm`. Implemented at the fidelity needed for
head-to-head metric comparisons against the Dirichlet-posterior solver,
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf, dpotrs, dtrtrs

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

    :func:`lasso_fit` now solves the constrained form directly on the barrier
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
    """Stopping tolerance of the barrier core, relative to max(RSS, 1).

    The core stops once its Frank-Wolfe gap, an upper bound on RSS(theta)
    minus the minimum, is at most ``gap_tol`` max(RSS(theta), 1) plus the
    floor that rounding sets on the gap (see :func:`_barrier_qp`).
    """

    gap_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.gap_tol < math.inf:
            raise ValueError("gap_tol must be positive and finite")


# The barrier schedule: the first level, the factor applied once a level is
# centred, the decrement (as a multiple of the level) below which it is, and
# the Newton step cap of one solve.
_MU0 = 1.0
_SHRINK = 0.05
_CENTRED = 0.25
_MAX_STEPS = 200


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


def lasso_coordinate_descent(
    design: np.ndarray,
    targets: np.ndarray,
    lam: float,
    theta0: np.ndarray | None = None,
    max_sweeps: int = 10_000,
    sweep_tol: float = 1e-10,
    trace: list[float] | None = None,
) -> np.ndarray:
    """Cyclic coordinate descent on the penalised form ||y - X theta||^2 + lam ||theta||_1.

    Its solution at penalty lam is :func:`lasso_fit`'s at budget
    C = ||theta_lam||_1, but ``lasso_fit`` does not call it. The quadratic
    term is un-halved, so each coordinate update soft-thresholds at lam/2.
    Appends the objective after every sweep to ``trace`` when given. Raises
    :class:`BalsonError` if the sweep cap is hit before the largest
    coordinate move falls below ``sweep_tol``.
    """
    gram = design.T @ design
    corr = design.T @ targets
    yty = float(targets @ targets)
    k = design.shape[1]
    theta = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=np.float64).copy()

    def objective():
        return yty - 2.0 * float(corr @ theta) + float(theta @ gram @ theta) + lam * float(
            np.abs(theta).sum()
        )

    for _ in range(max_sweeps):
        biggest_move = 0.0
        for j in range(k):
            gjj = gram[j, j]
            if gjj == 0.0:
                continue
            rho = corr[j] - float(gram[j] @ theta) + gjj * theta[j]
            new = soft_threshold(rho, 0.5 * lam) / gjj
            biggest_move = max(biggest_move, abs(new - theta[j]))
            theta[j] = new
        if trace is not None:
            trace.append(objective())
        if biggest_move <= sweep_tol:
            return theta
    resid = targets - design @ theta
    raise BalsonError(
        f"lasso coordinate descent did not converge; residual norm {np.linalg.norm(resid):.6g}"
    )


def lasso_fit(data: Dataset, spec: ModelSpec, cfg: BaselineConfig) -> np.ndarray:
    """Budget-matched LASSO in its constrained form: min RSS s.t. ||theta||_1 <= C.

    Splitting theta = theta+ - theta- with both parts nonnegative turns the
    L1 ball into {theta+, theta- >= 0, sum <= C} on the design [X, -X], which
    is IP's problem (Tibshirani 1996), on the split
    :class:`~balson.model.ResidualForm` that the signed BALSON solve uses.
    The stopping tolerance is ``cfg.ip``'s; ``cfg.lasso`` is ignored.
    """
    form = ResidualForm(data.inputs, data.targets, True, order=spec.order)
    return merge_signed(_within_budget(form, spec.scale, cfg.ip))


def ip_fit(data: Dataset, spec: ModelSpec, cfg: BaselineConfig) -> ParameterVector:
    """Log-barrier solve of min RSS(theta) s.t. theta >= 0, sum theta <= C."""
    return ParameterVector(ip_solve(data.inputs, data.targets, spec.scale, cfg.ip, order=spec.order))


def ip_solve(
    design: np.ndarray,
    targets: np.ndarray,
    budget: float,
    params: IpParams,
    *,
    order: int | None = None,
) -> np.ndarray:
    """Log-barrier solve of min RSS s.t. theta >= 0, sum theta <= C.

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
    return _barrier_qp(gram, np.append(form.xty, 0.0), form.yty, budget, params.gap_tol)[:k]


def _barrier_qp(
    gram: np.ndarray, xty: np.ndarray, yty: float, budget: float, gap_tol: float
) -> np.ndarray:
    """min RSS(theta) s.t. theta >= 0, sum theta = C, from RSS's sufficient statistics.

    RSS(theta) = y'y - 2 theta'X'y + theta'G theta. Newton's method on
    RSS - mu sum ln theta_i over the plane sum theta = C, in the variables u
    of theta = D u with D = diag(theta) (Boyd & Vandenberghe 2004, ch. 11).
    There the Hessian is M = D 2G D + mu I. Solving M against the scaled
    gradient and against theta gives the step that keeps sum theta = C; the
    step goes at most 0.99 of the way to the boundary. Once the Newton
    decrement is below mu/4, the level is centred and mu shrinks, down to
    the first level with K mu at most the target below.

    Returns the first iterate whose Frank-Wolfe gap g'theta - C min g, with
    g = grad RSS(theta), is at most ``gap_tol`` max(RSS(theta), 1) + r. The
    gap bounds RSS(theta) minus the minimum, and a centred point at the last
    level has a gap of at most (K - 1) mu. Here r = K eps C (C max|2G| +
    max|2X'y|) bounds the rounding of the gap's terms and eps K times the
    largest eigenvalue of D 2G D. So the gap is not asked to go below what
    rounding resolves, and M's diagonal is never less than r, so that its
    Cholesky factorisation succeeds however singular G is. Raises
    :class:`BalsonError` if the target is not finite (y'y, RSS or r
    overflows), if the factorisation fails all the same, or if the step cap
    is reached first.
    """
    k = gram.shape[0]
    gram2 = 2.0 * gram
    xty2 = 2.0 * xty
    terms = budget * (budget * np.abs(gram2).max() + np.abs(xty2).max())
    resolution = k * np.finfo(float).eps * terms
    theta = np.full(k, budget / k)
    rhs = np.empty((k, 2), order="F")
    mu = _MU0
    for _ in range(_MAX_STEPS):
        gram_theta = gram2 @ theta
        grad = gram_theta - xty2
        rss = yty + float(theta @ (0.5 * gram_theta - xty2))
        target = gap_tol * max(rss, 1.0) + resolution
        if not math.isfinite(target):
            raise BalsonError(f"barrier stop target is {target}: the statistics or budget overflow")
        if float(grad @ theta) - budget * float(grad.min()) <= target:
            return theta
        hess = gram2 * np.outer(theta, theta)
        hess.flat[:: k + 1] += max(mu, resolution)
        chol, info = dpotrf(hess, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise BalsonError(f"barrier Newton system not positive definite at level {mu:.3g}")
        rhs[:, 0] = theta * grad - mu
        rhs[:, 1] = theta
        solved, _ = dpotrs(chol, rhs, lower=1)
        free, normal = solved[:, 0], solved[:, 1]
        step = float(theta @ free) / float(theta @ normal) * normal - free
        decrement = -float(rhs[:, 0] @ step)
        # A full step, or 0.99 of the way to the nearest bound if that is closer.
        theta = theta * (1.0 + 0.99 / max(-float(step.min()), 0.99) * step)
        if decrement <= _CENTRED * mu and k * mu > target:
            mu *= _SHRINK
    raise BalsonError(f"barrier stalled at level {mu:.3g}: step cap")


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
