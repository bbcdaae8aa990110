"""End-to-end solver: dataset in, budgeted nonnegative coefficients out.

Pipeline: run the selected Monte-Carlo scheme, moment-match a Dirichlet to
the posterior samples, take its sparse mode, and rescale back to the
coefficient budget. The signed entry point doubles the design columns to
cover ordinary L1 problems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletParams, SimplexVector, mode
from .exceptions import ModeUndefinedError
from .model import (
    Dataset,
    ModelSpec,
    ParameterVector,
    ResidualForm,
    design_matrix,
    merge_signed,
    rescale,
)
from .samplers import RoundRecord, SamplerConfig, _iterated, residual_problem

METHODS = ("RS", "IS", "RSIRS", "ISIRS")
# Schemes whose first pass is rejection sampling, which needs the RSS floor.
_REJECTION_FIRST = ("RS", "RSIRS")


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
    seed: int
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


def _solve_design(form: ResidualForm, floor: float | None, cfg: BalsonConfig) -> FitReport:
    """Run ``cfg``'s scheme on one solve's residual form and RS floor (see ``residual_problem``)."""
    started = time.perf_counter()
    budget = cfg.spec.scale
    trace: list[RoundRecord] = []
    first = "rs" if cfg.method in _REJECTION_FIRST else "is"
    refine = cfg.method in ("RSIRS", "ISIRS")
    alpha_star = _iterated(form, floor, cfg.prior, budget, cfg.sampler, first, trace, refine)
    try:
        omega_star = mode(alpha_star)
        fallback = False
    except ModeUndefinedError:
        # All concentrations at or below 1: fall back to the posterior mean,
        # which is always a valid simplex point.
        omega_star = SimplexVector(alpha_star.alpha / alpha_star.alpha0)
        fallback = True
    theta_star = rescale(omega_star, budget)
    diagnostics = SolveDiagnostics(
        method=cfg.method,
        seed=cfg.sampler.seed,
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
    if len(cfg.prior) != cfg.spec.order:
        raise ValueError("prior dimension must equal the model order")
    form, floor = residual_problem(
        design_matrix(data.inputs, cfg.spec.order), data.targets, _floor_budget(cfg)
    )
    return _solve_design(form, floor, cfg)


def solve_signed(data: Dataset, cfg: BalsonConfig) -> np.ndarray:
    """Fit signed coefficients under an L1 budget via the split reduction.

    The design rows become [phi(x), -phi(x)], the solve runs in dimension
    2 * order on the nonnegative split vector, and the halves are merged
    back to signed coefficients whose absolute sum is at most the budget.
    """
    signed_order = cfg.spec.order
    if len(cfg.prior) != 2 * signed_order:
        raise ValueError("prior dimension must be twice the signed order")
    form, floor = residual_problem(
        _split_design(data.inputs, signed_order), data.targets, _floor_budget(cfg)
    )
    return merge_signed(_solve_design(form, floor, cfg).theta_star)


def _floor_budget(cfg: BalsonConfig) -> float | None:
    """The budget to take the RS floor at, or None when the scheme starts with IS."""
    return cfg.spec.scale if cfg.method in _REJECTION_FIRST else None


def _split_design(xs, order: int) -> np.ndarray:
    """Design rows [phi(x), -phi(x)] of the signed split, shape (N, 2 order)."""
    half = design_matrix(xs, order)
    return np.concatenate([half, -half], axis=1)
