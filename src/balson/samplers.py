"""Monte-Carlo estimation of the Dirichlet-approximated posterior.

Four schemes, rejection sampling (RS), importance sampling (IS) and their
iterated importance-resampling variants RSIRS and ISIRS, are the settings
in :data:`SCHEMES` of one loop, :func:`fit_posterior`. Each solve builds one
:class:`Problem` and one L-row :class:`_Workspace` for all of its passes. A
rejection pass proposes in chunks of L rows and stops early by
:func:`_cannot_finish`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .baselines import IpParams, _barrier_qp
from .dirichlet import DirichletParams, match_moments_per_dim, sample_batch
from .exceptions import BalsonError, DegenerateWeightsError, RejectionBudgetError
from .model import Dataset, ModelSpec, ResidualForm, integral, seed_field

DEFAULT_SAMPLE_COUNT = 10_000
MIN_SAMPLE_COUNT = 100
DEFAULT_RESAMPLE_ROUNDS = 100
PROPOSAL_BUDGET_FACTOR = 1000
_STOP_DELTA = 1e-12  # delta of _cannot_finish
# The four schemes: name -> (round 0's kernel, whether R refinement rounds
# follow). The order is the schemes' order everywhere, bench seeds included.
SCHEMES = {"RS": ("rs", False), "IS": ("is", False), "RSIRS": ("rs", True), "ISIRS": ("is", True)}


@dataclass(frozen=True)
class SamplerConfig:
    """Monte-Carlo knobs: L, refinement rounds R, RS proposal cap, seed.

    ``max_proposals`` (default 1000 L) caps the proposals of one rejection
    pass. The pass draws them in chunks of L and may stop after any chunk
    (see :func:`_cannot_finish`).
    """

    sample_count: int = DEFAULT_SAMPLE_COUNT
    resample_rounds: int = DEFAULT_RESAMPLE_ROUNDS
    max_proposals: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sample_count", integral(self.sample_count, "sample_count"))
        if self.max_proposals is None:
            object.__setattr__(self, "max_proposals", PROPOSAL_BUDGET_FACTOR * self.sample_count)
        for name in ("resample_rounds", "max_proposals"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        object.__setattr__(self, "seed", seed_field(self.seed, "seed"))
        if self.sample_count < MIN_SAMPLE_COUNT:
            raise ValueError(f"sample_count must be at least {MIN_SAMPLE_COUNT}")
        if self.resample_rounds < 0:
            raise ValueError("resample_rounds must be >= 0")
        if self.max_proposals < self.sample_count:
            raise ValueError("max_proposals must be >= sample_count")


@dataclass(frozen=True)
class WeightedSampleSet:
    """L simplex samples with normalized weights and degeneracy diagnostics.

    ``proposals`` counts the draws the pass made to produce them; it defaults
    to L, one draw per sample, as in importance sampling.
    """

    samples: np.ndarray  # (L, K), each row on the simplex
    weights: np.ndarray  # (L,), nonnegative, sums to 1
    ess: float
    acceptance_rate: float
    proposals: int | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "weights", w)
        if s.ndim != 2 or s.shape[1] < 2 or w.shape != (s.shape[0],):
            raise ValueError("samples must be (L, K>=2) with one weight per row")
        # One pass over the samples per check: their minimum and their row
        # sums. Each check is negated so that a NaN, which compares false,
        # fails it.
        deviation = np.max(np.abs(s @ np.ones(s.shape[1]) - 1.0))
        if not (s.min() >= 0.0) or not (deviation <= 1e-12):
            raise ValueError("every sample must lie on the simplex")
        if not (w.min() >= 0.0) or not (abs(float(w.sum()) - 1.0) <= 1e-10):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not (1.0 - 1e-9 <= self.ess <= s.shape[0] * (1.0 + 1e-9)):
            raise ValueError("ess must lie in [1, L]")
        object.__setattr__(self, "ess", float(min(max(self.ess, 1.0), s.shape[0])))
        if not (0.0 <= self.acceptance_rate <= 1.0):
            raise ValueError("acceptance_rate must lie in [0, 1]")
        if self.proposals is None:
            object.__setattr__(self, "proposals", s.shape[0])
        if self.proposals < s.shape[0]:
            raise ValueError("proposals must be at least the sample count")


@dataclass(frozen=True)
class RoundRecord:
    """One refinement round: which pass ran and what it produced."""

    kind: str  # "rs" or "is"
    ess: float
    acceptance_rate: float
    proposals: int
    alpha: np.ndarray = field(repr=False)


class _Workspace:
    """The buffers of one solve, reused by every RS chunk and IS round of its passes.

    Three rows x K arrays hold the draws, C omega and theta G, and two
    vectors of length rows hold the RSS, then ell, and its quadratic term;
    the second then takes RS's uniforms. A solve sizes it to L rows, the rows of
    an IS round and of an RS chunk. A chunk or round of ``m <= rows`` draws
    uses the first ``m`` rows of each, so a solve makes no per-round or
    per-chunk rows x K temporaries.

    The draws, which IS returns as its samples, are one allocation and the
    other four arrays share a second, larger one. glibc's malloc hands the
    free top of its heap back to the system once it exceeds twice the
    largest block freed so far; five separate arrays exceed that, and every
    solve then faults its workspace in again (about 1,200 page faults, 4 ms,
    per IS solve at K = 20, L = 10^4), while these two blocks stay below it.

    A workspace never outlives its solve. IS samples are views of its draws,
    valid until its next pass; RS keeps copies. When a solve fails, the loop
    releases the workspace from every frame of the traceback before raising,
    so a caught error pins no buffer.
    """

    def __init__(self, rows: int, k: int):
        self.draws = np.empty((rows, k))
        block = np.empty(2 * rows * (k + 1))
        self.thetas, self.product = block[: 2 * rows * k].reshape(2, rows, k)
        self.values, self.scratch = block[2 * rows * k :].reshape(2, rows)

    def draw(
        self, problem: Problem, prior: DirichletParams, rng: np.random.Generator, m: int, kind: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``m`` points from ``prior`` and their ell as views, after the one NaN-RSS check."""
        draws = sample_batch(prior, rng, m, out=self.draws[:m])
        thetas = np.multiply(draws, problem.budget, out=self.thetas[:m])
        work = (self.product[:m], self.scratch[:m])
        rss = problem.form.rss(thetas, out=self.values[:m], work=work)
        if np.any(np.isnan(rss)):
            raise BalsonError(f"non-finite residual during {kind} sampling")
        return draws, problem.log_likelihood(rss)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """The substream of one sampling round, so every scheme is deterministic given its seed."""
    return np.random.default_rng([seed, round_index])


def min_rss(form: ResidualForm, budget: float) -> float:
    """Certified lower bound on RSS(theta) over the scaled simplex {theta >= 0, sum theta = C}.

    This is the RS envelope floor. The barrier core minimises RSS over the
    simplex. At its answer theta_hat, with g = grad RSS(theta_hat),
    convexity gives for every simplex point
    RSS(theta) >= RSS(theta_hat) - g'theta_hat + C min_i g_i, the
    Frank-Wolfe bound (Frank & Wolfe 1956; Jaggi 2013). The bound holds for
    any theta_hat, and the core returns a theta_hat at which it is within
    ``IpParams().gap_tol`` max(RSS, 1) of RSS(theta_hat), so the floor is
    within that of the minimum.
    """
    theta = _barrier_qp(form.gram, form.xty, form.yty, budget, IpParams().gap_tol)
    grad = 2.0 * (form.gram @ theta - form.xty)
    return max(form.rss(theta) - float(grad @ theta) + budget * float(grad.min()), 0.0)


def normalize_log_weights(log_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift by the max, exponentiate, normalize; returns (weights, ess).

    The shift makes the largest weight exactly 1 before normalization, so the
    sum is at least 1, and the result (and the effective sample size
    1 / sum w^2) is invariant to adding any constant to the log weights.
    """
    log_weights = np.asarray(log_weights, dtype=np.float64)
    if not np.all(np.isfinite(log_weights)):
        raise BalsonError("non-finite log weight encountered")
    shifted = np.exp(log_weights - log_weights.max())
    weights = shifted / float(shifted.sum())
    ess = 1.0 / float(weights @ weights)
    return weights, ess


@dataclass(frozen=True)
class Problem:
    """One solve's residual form and budget C; every round of the solve shares it."""

    form: ResidualForm
    budget: float

    @classmethod
    def of(
        cls, data: Dataset, prior: DirichletParams, spec: ModelSpec, signed: bool = False
    ) -> Problem:
        """The problem of fitting ``data`` at ``spec`` from ``prior``.

        Its form is :class:`~balson.model.ResidualForm`'s polynomial one, or
        with ``signed`` the split one, and then the prior covers 2K dimensions.
        """
        if signed and len(prior) != 2 * spec.order:
            raise ValueError("prior dimension must be twice the signed order")
        if not signed and len(prior) != spec.order:
            raise ValueError("prior dimension must equal the model order")
        form = ResidualForm(data.inputs, data.targets, signed, order=spec.order)
        return cls(form, spec.scale)

    @staticmethod
    def log_likelihood(rss):
        """The log-likelihood of the data, ell(RSS) = -RSS/2 up to a constant: Gaussian
        noise of unit variance. Overwrites an array ``rss`` and returns it."""
        rss *= -0.5
        return rss

    @cached_property
    def floor(self) -> float:
        """The RS envelope floor :func:`min_rss`, taken on first use and then kept.

        Only a rejection pass reads it, so IS and ISIRS never compute it.
        """
        return min_rss(self.form, self.budget)


def _rate_bound(accepted: int, proposed: int) -> float:
    """p_hi: the one-sided Clopper-Pearson upper bound on an acceptance rate
    (Clopper & Pearson 1934).

    The 1 - delta/2 quantile of Beta(accepted + 1, proposed - accepted), so
    the true rate exceeds it with probability at most delta/2; 1 when every
    proposal was accepted.
    """
    if accepted == proposed:
        return 1.0
    return float(special.betaincinv(accepted + 1, proposed - accepted, 1.0 - _STOP_DELTA / 2))


def _cannot_finish(accepted: int, proposed: int, need: int, left: int) -> bool:
    """Whether a rejection pass should stop: ``left`` proposals, even at the
    rate bound p_hi, yield the ``need`` acceptances still wanted with
    probability P(Bin(left, p_hi) >= need) below delta/2.

    A rejection pass asks after each chunk of L = ``sample_count`` proposals,
    with delta = 1e-12, and raises :class:`RejectionBudgetError` on a yes.
    Fewer proposals than acceptances needed, a spent budget included, always
    stop; a pass that has accepted every proposal, where p_hi = 1, never
    does. Each chunk stops a pass that the whole budget would have finished
    with probability at most delta, so a solve is stopped wrongly with
    probability at most ceil(max_proposals / L) delta: 1e-9 at the default
    cap of 1000 L, whatever L is. The check reads only counters and draws
    no random numbers, so every pass that finishes returns the same bits as
    a pass without it.
    """
    if left < need:
        return True
    return bool(special.bdtrc(need - 1, left, _rate_bound(accepted, proposed)) < _STOP_DELTA / 2)


def _rejection(
    problem: Problem,
    prior: DirichletParams,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    ws: _Workspace,
) -> WeightedSampleSet:
    """Draw L posterior samples by rejection from the Dirichlet ``prior``.

    A proposal omega is kept with probability exp(min(ell(RSS(C omega)) - ell(floor), 0)),
    for ell the :meth:`Problem.log_likelihood` and the floor :func:`min_rss`, a certified
    lower bound on RSS over the scaled simplex. ell decreases, so ell(floor) bounds it on the
    whole proposal support and the kept draws are exact posterior draws; the tighter the
    floor, the fewer proposals they cost. Raises :class:`RejectionBudgetError` as soon as
    the pass cannot reach L acceptances (see :func:`_cannot_finish`).
    """
    want = cfg.sample_count
    kept = []
    n_kept = 0
    n_proposed = 0
    n_accepted = 0
    while n_kept < want:
        m = min(want, cfg.max_proposals - n_proposed)
        draws, gap = ws.draw(problem, prior, rng, m, "rejection")
        # The log acceptance probability, in place.
        gap -= problem.log_likelihood(problem.floor)
        np.minimum(gap, 0.0, out=gap)
        accepted = rng.random(m, out=ws.scratch[:m]) <= np.exp(gap, out=gap)
        n_proposed += m
        n_accepted += int(accepted.sum())
        if accepted.any():
            # Keep copies, and no more than are wanted, so that the samples
            # neither alias the workspace nor pin a longer array.
            kept.append(draws[accepted][: want - n_kept])
            n_kept += kept[-1].shape[0]
        need, left = want - n_kept, cfg.max_proposals - n_proposed
        if need > 0 and _cannot_finish(n_accepted, n_proposed, need, left):
            raise RejectionBudgetError(
                f"rejection sampling stopped: {n_proposed} proposals "
                f"yielded {n_accepted} acceptances (need {want}); with {left} of "
                f"{cfg.max_proposals} proposals left and an acceptance rate of at most "
                f"{_rate_bound(n_accepted, n_proposed):.3g} (one-sided Clopper-Pearson "
                f"bound, level {_STOP_DELTA:g}), {need} more are out of reach"
            )
    samples = np.concatenate(kept)
    weights = np.full(want, 1.0 / want)
    return WeightedSampleSet(
        samples=samples,
        weights=weights,
        ess=float(want),
        acceptance_rate=n_accepted / n_proposed,
        proposals=n_proposed,
    )


def _importance(
    problem: Problem,
    prior: DirichletParams,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    ws: _Workspace,
) -> WeightedSampleSet:
    """Weight L draws from ``prior`` by the likelihood, log w_l = ell(RSS(C omega_l)) with
    ell the :meth:`Problem.log_likelihood`, normalised by :func:`normalize_log_weights`."""
    draws, ell = ws.draw(problem, prior, rng, cfg.sample_count, "importance")
    weights, ess = normalize_log_weights(ell)
    return WeightedSampleSet(samples=draws, weights=weights, ess=ess, acceptance_rate=1.0)


def weighted_moments(
    sample_set: WeightedSampleSet, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-component mean and variance of a sample set.

    ``work``, an array of at least L x K, holds the squared deviations.
    """
    if sample_set.ess <= 1.0:
        raise DegenerateWeightsError("degenerate weights: effective sample size <= 1")
    w = sample_set.weights
    s = sample_set.samples
    mean = w @ s
    deviation = np.subtract(s, mean, out=None if work is None else work[: s.shape[0]])
    variance = w @ np.square(deviation, out=deviation)
    return mean, variance


def fit_posterior(
    problem: Problem, prior: DirichletParams, cfg: SamplerConfig, method: str
) -> tuple[DirichletParams, list[RoundRecord]]:
    """The sampling loop of all four schemes; returns the last fit and the round trace.

    ``method`` names a scheme of :data:`SCHEMES`. Round 0 runs the scheme's
    kernel ("rs" or "is") against ``prior`` and moment-matches a Dirichlet
    to its samples. A refining scheme then runs R = ``cfg.resample_rounds``
    rounds, each importance-sampling from the previous round's fit and
    matching again; its errors carry the round. RS and IS are round 0 alone.
    The trace holds one :class:`RoundRecord` per round run.
    """
    first, refine = SCHEMES[method]
    ws = _Workspace(cfg.sample_count, len(prior))
    alpha = prior
    trace = []
    for rnd in range(cfg.resample_rounds + 1 if refine else 1):
        rng = round_rng(cfg.seed, rnd)
        kind = first if rnd == 0 else "is"
        try:
            if kind == "rs":
                batch = _rejection(problem, alpha, cfg, rng, ws)
            else:
                # Proposal and prior are both Dir(alpha), so the weights
                # reduce to the data likelihood alone.
                batch = _importance(problem, alpha, cfg, rng, ws)
            mean, variance = weighted_moments(batch, work=ws.product)
            alpha = match_moments_per_dim(mean, variance)
        except BalsonError as err:
            # The traceback keeps this frame and every frame below it: release
            # the workspace and the batch's views of it from all of them.
            ws = batch = None
            traceback.clear_frames(err.__traceback__)
            if not refine:
                raise
            raise type(err)(f"resampling round {rnd}: {err}") from err
        trace.append(
            RoundRecord(
                kind=kind,
                ess=batch.ess,
                acceptance_rate=batch.acceptance_rate,
                proposals=batch.proposals,
                alpha=alpha.alpha.copy(),
            )
        )
    return alpha, trace
