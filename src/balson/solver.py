"""End-to-end solver: dataset in, budgeted nonnegative coefficients out.

Pipeline: build the solve's :class:`~balson.samplers.Problem`, run
:func:`~balson.samplers.fit_posterior`, the sampling loop, at the selected
scheme of :data:`~balson.samplers.SCHEMES`, take the sparse mode of the
Dirichlet it fits, and scale that simplex point by the budget C. The signed
entry point covers ordinary L1 problems through the split reduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletParams, SimplexVector, mode, moments
from .exceptions import ModeUndefinedError
from .model import Dataset, ModelSpec, ParameterVector, merge_signed
from .samplers import SCHEMES, Problem, SamplerConfig, fit_posterior

METHODS = tuple(SCHEMES)


def uniform_prior(k: int) -> DirichletParams:
    """Flat Dirichlet prior: no preference among coefficients."""
    return DirichletParams(np.ones(k))


@dataclass(frozen=True)
class BalsonConfig:
    """Which sampling scheme to run, with its prior, model, and Monte-Carlo knobs."""

    method: str
    prior: DirichletParams
    spec: ModelSpec
    sampler: SamplerConfig

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Audit trail of one solve: per-round behavior, fallback flag, timing."""

    method: str
    prior_alpha: tuple[float, ...]
    acceptance_rate: float
    proposals: int  # draws made in round 0: RS proposals, or L for IS
    ess_per_round: tuple[float, ...]
    alpha0_trajectory: tuple[float, ...]
    mean_fallback: bool
    wall_clock_s: float


@dataclass(frozen=True)
class FitReport:
    """Solver output: coefficients, matched posterior, mode point, diagnostics."""

    theta_star: ParameterVector
    alpha_star: DirichletParams
    omega_star: SimplexVector
    diagnostics: SolveDiagnostics


def _solve_design(data: Dataset, *, cfg: BalsonConfig, signed: bool = False) -> FitReport:
    """Build the solve's problem (see ``Problem.of``) and run ``cfg``'s scheme on it.

    The clock covers both. ``cfg`` is keyword-only: perfbench's tracer reads it by that name.
    """
    started = time.perf_counter()
    problem = Problem.of(data, cfg.prior, cfg.spec, signed)
    alpha_star, trace = fit_posterior(problem, cfg.prior, cfg.sampler, cfg.method)
    try:
        omega_star = mode(alpha_star)
        fallback = False
    except ModeUndefinedError:
        # All concentrations at or below 1: fall back to the posterior mean,
        # which is always a valid simplex point.
        omega_star = SimplexVector(moments(alpha_star)[0])
        fallback = True
    theta_star = ParameterVector(problem.budget * omega_star.values)
    diagnostics = SolveDiagnostics(
        method=cfg.method,
        prior_alpha=tuple(float(a) for a in cfg.prior.alpha),
        acceptance_rate=trace[0].acceptance_rate,
        proposals=trace[0].proposals,
        ess_per_round=tuple(r.ess for r in trace),
        alpha0_trajectory=tuple(float(r.alpha.sum()) for r in trace),
        mean_fallback=fallback,
        wall_clock_s=time.perf_counter() - started,
    )
    return FitReport(
        theta_star=theta_star,
        alpha_star=alpha_star,
        omega_star=omega_star,
        diagnostics=diagnostics,
    )


def solve(data: Dataset, cfg: BalsonConfig) -> FitReport:
    """Fit nonnegative budgeted polynomial coefficients to the dataset."""
    return _solve_design(data, cfg=cfg)


def solve_signed(data: Dataset, cfg: BalsonConfig) -> np.ndarray:
    """Fit signed coefficients under an L1 budget via the split reduction.

    The solve runs in dimension 2 * order on the nonnegative split vector,
    against the residual form of the design [phi(x), -phi(x)] (see
    ``Problem.of``). The halves are merged back to signed coefficients whose
    absolute sum is at most the budget.
    """
    return merge_signed(_solve_design(data, cfg=cfg, signed=True).theta_star.theta)
