"""Reference solvers: budgeted LASSO, log-barrier interior point, Bayesian LASSO.

LASSO and IP share one constrained-QP core, a log-barrier Newton method on
RSS's sufficient statistics (Gram, X'y, y'y). IP solves
min RSS s.t. theta >= 0, sum theta <= C. LASSO solves the constrained form
min RSS s.t. ||theta||_1 <= C (Tibshirani 1996) as the same problem on the
split design [X, -X]. :func:`lasso_coordinate_descent` solves the penalised
form min RSS + lam ||theta||_1 for a given penalty; ``lasso_fit`` does not
use it. :func:`bayesian_lasso_fit` runs its Gibbs chain on LAPACK's
Cholesky and triangular solves, and raises :class:`BalsonError` before the
chain starts if the Gram or X'y is non-finite, instead of returning NaN.
Implemented at the fidelity needed for head-to-head metric comparisons
against the Dirichlet-posterior solver, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .exceptions import BalsonError
from .model import Dataset, ModelSpec, ParameterVector, ResidualForm, design_matrix, merge_signed


@dataclass(frozen=True)
class LassoParams:
    """Deprecated and ignored: the penalty search of the former LASSO solver.

    :func:`lasso_fit` now solves the constrained form directly on the barrier
    core, with ``BaselineConfig.ip`` as its schedule, so there is no penalty
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
    """Log-barrier schedule and Newton tolerances."""

    mu0: float = 1.0
    barrier_factor: float = 0.2
    newton_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_outer: int = 60
    max_newton: int = 200


@dataclass(frozen=True)
class GibbsParams:
    """Chain length and shrinkage hyperprior for the Bayesian LASSO."""

    iterations: int = 6000
    burn_in: int = 1000
    hyper_shape: float = 1.0
    hyper_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if self.hyper_shape <= 0.0 or self.hyper_rate <= 0.0:
            raise ValueError("hyperprior parameters must be positive")


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
    C = ||theta_lam||_1. The quadratic term is un-halved, so each coordinate
    update soft-thresholds at lam/2. Appends the objective after every sweep
    to ``trace`` when given;
    raises :class:`BalsonError` if the sweep cap is hit before the largest
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
    is the barrier core's problem (Tibshirani 1996). Its statistics come from
    the split :class:`~balson.model.ResidualForm`, the same one the signed
    BALSON solve uses, which builds [[G, -G], [-G, G]] and [X'y, -X'y] from
    the K x K Gram G and never forms [X, -X] itself. The barrier schedule is
    ``cfg.ip``; ``cfg.lasso`` is ignored.
    """
    form = ResidualForm(design_matrix(data.inputs, spec.order), data.targets, True)
    return merge_signed(_barrier_qp(form.gram, form.xty, form.yty, spec.scale, cfg.ip))


def ip_fit(data: Dataset, spec: ModelSpec, cfg: BaselineConfig) -> ParameterVector:
    """Log-barrier solve of min RSS(theta) s.t. theta >= 0, sum theta <= C."""
    design = design_matrix(data.inputs, spec.order)
    return ParameterVector(ip_solve(design, data.targets, spec.scale, cfg.ip))


def ip_solve(
    design: np.ndarray, targets: np.ndarray, budget: float, params: IpParams
) -> np.ndarray:
    """Primal log-barrier method on an explicit design matrix (see :func:`_barrier_qp`)."""
    return _barrier_qp(
        design.T @ design, design.T @ targets, float(targets @ targets), budget, params
    )


def _barrier_qp(
    gram: np.ndarray,
    xty: np.ndarray,
    yty: float,
    budget: float,
    params: IpParams,
    trace: list[np.ndarray] | None = None,
) -> np.ndarray:
    """min RSS(theta) s.t. theta >= 0, sum theta <= C, from RSS's sufficient statistics.

    RSS(theta) = y'y - 2 theta'X'y + theta'G theta. Damped Newton on
    RSS - mu (sum ln theta_i + ln(C - sum theta)), with mu shrunk
    geometrically until the (K+1) mu gap proxy is below tolerance.
    Every iterate stays strictly feasible. ``trace`` collects the iterates.
    """
    k = gram.shape[0]
    gram2 = 2.0 * gram
    corr2 = 2.0 * xty

    theta = np.full(k, budget / (2.0 * k))
    if trace is not None:
        trace.append(theta.copy())
    # Checked after the first iterate is traced, so that min_rss still has a
    # feasible point to certify a floor from.
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(xty))):
        raise BalsonError("non-finite Gram or X'y: the design overflows")

    def barrier_value(t, mu):
        slack = budget - t.sum()
        rss = yty - float(corr2 @ t) + 0.5 * float(t @ gram2 @ t)
        return rss - mu * (float(np.log(t).sum()) + np.log(slack))

    mu = params.mu0
    for _ in range(params.max_outer):
        for _ in range(params.max_newton):
            slack = budget - theta.sum()
            grad = gram2 @ theta - corr2 - mu / theta + (mu / slack)
            hess = gram2 + np.diag(mu / theta**2) + (mu / slack**2)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError as err:
                raise BalsonError(f"newton failure at barrier level {mu:.3g}: {err}") from err
            decrement_sq = float(-grad @ step)
            if decrement_sq / 2.0 <= params.newton_tol:
                break
            size = 1.0
            # Pull the step inside the strictly feasible region first.
            while np.any(theta + size * step <= 0.0) or (theta + size * step).sum() >= budget:
                size *= 0.5
                if size < 1e-16:
                    raise BalsonError(f"newton failure at barrier level {mu:.3g}: no feasible step")
            reference = barrier_value(theta, mu)
            while barrier_value(theta + size * step, mu) > reference + 0.25 * size * float(
                grad @ step
            ):
                size *= 0.5
                if size < 1e-16:
                    raise BalsonError(f"newton failure at barrier level {mu:.3g}: line search stalled")
            theta = theta + size * step
            if trace is not None:
                trace.append(theta.copy())
        else:
            raise BalsonError(f"newton failure at barrier level {mu:.3g}: iteration cap")
        if (k + 1) * mu < params.gap_tol:
            break
        mu *= params.barrier_factor
    return theta


def bayesian_lasso_fit(
    data: Dataset,
    spec: ModelSpec,
    cfg: BaselineConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gibbs sampler for the Laplace-prior linear model; returns the posterior mean.

    Scale-mixture form with unit noise variance: coefficients from their full
    conditional Gaussian, inverse latent scales from inverse-Gaussian full
    conditionals, and the squared shrinkage weight from its gamma full
    conditional under a Gamma(shape, rate) hyperprior (Park & Casella 2008).

    Each step refreshes only the diagonal of one preallocated precision
    P = G + diag(1/tau^2), factors P = LL' once and draws
    beta = L^-T (L^-1 X'y + z), z ~ N(0, I), with two triangular solves. The
    inverse-Gaussian values are drawn one at a time, which consumes the
    generator's stream exactly as one array draw does, at a fraction of its
    call overhead. Raises :class:`BalsonError` if the Gram or X'y is
    non-finite, or if P is not positive definite.
    """
    params = cfg.gibbs
    if rng is None:
        rng = np.random.default_rng([params.seed])
    design = design_matrix(data.inputs, spec.order)
    gram = design.T @ design
    corr = design.T @ data.targets
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(corr))):
        raise BalsonError("non-finite Gram or X'y: the design overflows")
    k = spec.order

    precision = np.array(gram, order="F")
    diag = precision.ravel(order="F")[:: k + 1]  # a writable view of P's diagonal
    gram_diag = diag.copy()
    tau_sq = np.ones(k)
    inv_tau_sq = np.empty(k)
    lam_sq = 1.0
    total = np.zeros(k)
    for it in range(params.iterations):
        np.add(gram_diag, 1.0 / tau_sq, out=diag)
        chol, info = dpotrf(precision, lower=1, clean=0)
        if info > 0:
            raise BalsonError(f"singular conditional covariance at iteration {it}")
        half, _ = dtrtrs(chol, corr, lower=1)
        half += rng.standard_normal(k)
        beta, _ = dtrtrs(chol, half, lower=1, trans=1, overwrite_b=1)
        scale = math.sqrt(lam_sq)
        for i, b in enumerate(beta.tolist()):
            inv_tau_sq[i] = rng.wald(scale / max(abs(b), 1e-12), lam_sq)
        tau_sq = np.minimum(np.maximum(1.0 / inv_tau_sq, 1e-10), 1e10)
        lam_sq = rng.gamma(
            k + params.hyper_shape, 1.0 / (params.hyper_rate + 0.5 * float(tau_sq.sum()))
        )
        if it >= params.burn_in:
            total += beta
    return total / (params.iterations - params.burn_in)
