"""Monte-Carlo estimation of the Dirichlet-approximated posterior.

Four schemes: rejection sampling, importance sampling, and their iterated
importance-resampling variants that re-fit the Dirichlet proposal over R
refinement rounds. All schemes are deterministic given the configured seed;
round ``i`` always consumes the substream ``default_rng([seed, i])``.

All four are one loop, :func:`_iterated`: RS and IS are its round 0 alone.
Every solve builds one :class:`Problem`, its residual form and budget C, and
passes it to every round. The RS envelope floor is a lazy property of the
problem, taken once, on the first rejection pass, so a scheme that starts
with importance sampling never pays for it.

Each pass allocates one :class:`_Workspace` up front, and every RS chunk and
IS round writes its draws, C omega, theta G and RSS into it, so a pass of R
rounds makes no per-round rows x K temporaries. A workspace never
outlives its pass: when a solve fails, the loop releases the workspace
from every frame of the traceback before raising, so a caught error pins
no buffer, and the public wrappers return arrays they own.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baselines import IpParams, _barrier_qp
from .dirichlet import DirichletParams, match_moments_per_dim, sample_batch
from .exceptions import BalsonError, DegenerateWeightsError, RejectionBudgetError
from .model import Dataset, ModelSpec, ResidualForm, design_matrix

DEFAULT_SAMPLE_COUNT = 10_000
DEFAULT_RESAMPLE_ROUNDS = 100
PROPOSAL_BUDGET_FACTOR = 1000
_CHUNK = 50_000


@dataclass(frozen=True)
class SamplerConfig:
    """Monte-Carlo knobs: L, refinement rounds R, RS proposal cap, seed."""

    sample_count: int = DEFAULT_SAMPLE_COUNT
    resample_rounds: int = DEFAULT_RESAMPLE_ROUNDS
    max_proposals: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 100:
            raise ValueError("sample_count must be at least 100")
        if self.resample_rounds < 0:
            raise ValueError("resample_rounds must be >= 0")
        if self.max_proposals is None:
            object.__setattr__(self, "max_proposals", PROPOSAL_BUDGET_FACTOR * self.sample_count)
        if self.max_proposals < self.sample_count:
            raise ValueError("max_proposals must be >= sample_count")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")


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

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class RoundRecord:
    """One refinement round: which pass ran and what it produced."""

    index: int
    kind: str  # "rs" or "is"
    ess: float
    acceptance_rate: float
    proposals: int
    alpha: np.ndarray = field(repr=False)


class _Workspace:
    """The buffers of one sampling pass, reused by each of its RS chunks and IS rounds.

    Three rows x K arrays hold the draws, C omega and theta G, and two
    vectors of length rows hold the RSS and its quadratic term; the second
    vector then takes RS's uniforms. A pass of ``m <= rows`` draws uses
    the first ``m`` rows of each.
    """

    def __init__(self, rows: int, k: int):
        self.draws = np.empty((rows, k))
        self.thetas = np.empty((rows, k))
        self.product = np.empty((rows, k))
        self.values = np.empty(rows)
        self.scratch = np.empty(rows)

    def draw_rss(
        self, problem: Problem, prior: DirichletParams, rng: np.random.Generator, m: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``m`` points from ``prior`` and their RSS at C omega, as views (draws, rss)."""
        draws = sample_batch(prior, rng, m, out=self.draws[:m])
        thetas = np.multiply(draws, problem.budget, out=self.thetas[:m])
        work = (self.product[:m], self.scratch[:m])
        return draws, problem.form.rss(thetas, out=self.values[:m], work=work)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Substream for one sampling round, derived from (seed, round index)."""
    return np.random.default_rng([seed, round_index])


def min_rss(form: ResidualForm, budget: float) -> float:
    """Certified lower bound on RSS(theta) over the scaled simplex {theta >= 0, sum theta = C}.

    This is the RS envelope floor. The barrier core minimises RSS over the
    simplex in the coordinates theta = C e_K + A phi with A = [I; -1'], whose
    feasible set {phi >= 0, sum phi <= C} is the core's own. At its answer
    theta_hat, with g = grad RSS(theta_hat), convexity gives for every simplex
    point RSS(theta) >= RSS(theta_hat) - g'theta_hat + C min_i g_i, the
    Frank-Wolfe bound (Frank & Wolfe 1956). The bound holds for any theta_hat,
    so the floor is valid however far the barrier stopped from the optimum,
    and it equals the minimum when theta_hat is the minimiser. Near the
    optimum the barrier's Newton system can turn numerically singular when
    the Gram is singular, as in the signed split; theta_hat is then the
    barrier's last iterate.
    """
    k = form.gram.shape[0]
    lift = np.vstack([np.eye(k - 1), -np.ones(k - 1)])
    corner = np.zeros(k)
    corner[-1] = budget
    iterates: list[np.ndarray] = []
    try:
        _barrier_qp(
            lift.T @ form.gram @ lift,
            lift.T @ (form.xty - form.gram @ corner),
            form.rss(corner),
            budget,
            IpParams(),
            iterates,
        )
    except BalsonError:
        pass  # the last feasible iterate still certifies a floor
    theta = corner + lift @ iterates[-1]
    grad = 2.0 * (form.gram @ theta - form.xty)
    return max(form.rss(theta) - float(grad @ theta) + budget * float(grad.min()), 0.0)


def rss_lower_bound(data: Dataset, order: int) -> float:
    """Floor of ||y - Phi theta||^2 over all real theta; dominates RSS(C omega).

    The unconstrained least-squares RSS (minimum-norm on rank deficiency).
    Rejection sampling uses the tighter simplex floor :func:`min_rss` instead.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(data) == 0:
        return 0.0
    design = design_matrix(data.inputs, order)
    theta, *_ = np.linalg.lstsq(design, data.targets, rcond=None)
    resid = data.targets - design @ theta
    return max(float(resid @ resid), 0.0)


def normalize_log_weights(log_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift by the max, exponentiate, normalize; returns (weights, ess).

    The shift makes the largest weight exactly 1 before normalization, so the
    result (and the effective sample size 1 / sum w^2) is invariant to adding
    any constant to the log weights.
    """
    log_weights = np.asarray(log_weights, dtype=np.float64)
    if not np.all(np.isfinite(log_weights)):
        raise BalsonError("non-finite log weight encountered")
    shifted = np.exp(log_weights - log_weights.max())
    total = float(shifted.sum())
    if total <= 0.0:
        raise BalsonError("all importance weights vanished after stabilization")
    weights = shifted / total
    ess = 1.0 / float(weights @ weights)
    return weights, ess


@dataclass(frozen=True)
class Problem:
    """One solve's residual form and budget C; every round of the solve shares it.

    The form holds only the data's sufficient statistics, so no solve frame
    binds the N x K design, and a failed solve's traceback cannot keep it
    alive. ``floor``, the RS envelope floor, is taken on first use.
    """

    form: ResidualForm
    budget: float

    @classmethod
    def of(
        cls, data: Dataset, prior: DirichletParams, spec: ModelSpec, signed: bool = False
    ) -> Problem:
        """The problem of fitting ``data`` at ``spec`` from ``prior``.

        With ``signed`` the form is the split reduction's (see
        :class:`~balson.model.ResidualForm`), and the prior covers its 2K
        dimensions.
        """
        if signed and len(prior) != 2 * spec.order:
            raise ValueError("prior dimension must be twice the signed order")
        if not signed and len(prior) != spec.order:
            raise ValueError("prior dimension must equal the model order")
        form = ResidualForm(design_matrix(data.inputs, spec.order), data.targets, signed)
        return cls(form, spec.scale)

    @cached_property
    def floor(self) -> float:
        """The RS envelope floor :func:`min_rss`, computed once per problem."""
        return min_rss(self.form, self.budget)


def _rejection(
    problem: Problem,
    prior: DirichletParams,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    ws: _Workspace | None = None,
) -> WeightedSampleSet:
    want = cfg.sample_count
    if ws is None:
        ws = _Workspace(min(_CHUNK, cfg.max_proposals), len(prior))
    kept = []
    n_kept = 0
    n_proposed = 0
    n_accepted = 0
    while n_kept < want:
        remaining_budget = cfg.max_proposals - n_proposed
        if remaining_budget <= 0:
            # The traceback keeps this frame; drop the workspace and the last
            # chunk's views of it (max_proposals >= sample_count, so at least
            # one chunk was drawn).
            del ws, draws, gap, accepted
            raise RejectionBudgetError(
                f"rejection budget exceeded: {n_proposed} proposals "
                f"yielded {n_accepted} acceptances (need {want})"
            )
        m = min(_CHUNK, remaining_budget)
        draws, gap = ws.draw_rss(problem, prior, rng, m)
        gap -= problem.floor
        if np.any(np.isnan(gap)):
            raise BalsonError("non-finite residual during rejection sampling")
        # Acceptance probability exp(-max(gap, 0) / 2), in place.
        np.maximum(gap, 0.0, out=gap)
        gap *= -0.5
        accepted = rng.random(m, out=ws.scratch[:m]) <= np.exp(gap, out=gap)
        n_proposed += m
        n_accepted += int(accepted.sum())
        if accepted.any():
            # Keep copies, and no more than are wanted, so that the samples
            # neither alias the workspace nor pin a longer array.
            kept.append(draws[accepted][: want - n_kept])
            n_kept += kept[-1].shape[0]
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
    ws: _Workspace | None = None,
) -> WeightedSampleSet:
    """The samples are views of ``ws``'s draws, valid until its next pass."""
    if ws is None:
        ws = _Workspace(cfg.sample_count, len(prior))
    draws, rss = ws.draw_rss(problem, prior, rng, cfg.sample_count)
    if np.any(np.isnan(rss)):
        raise BalsonError("non-finite residual during importance sampling")
    rss *= -0.5
    weights, ess = normalize_log_weights(rss)
    return WeightedSampleSet(samples=draws, weights=weights, ess=ess, acceptance_rate=1.0)


def rejection_sample(
    data: Dataset,
    prior: DirichletParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> WeightedSampleSet:
    """Draw L posterior samples by rejection from the Dirichlet prior.

    A proposal omega is kept with probability exp(-(RSS(C omega) - floor)/2),
    where the floor is :func:`min_rss`, a certified lower bound on RSS over
    the scaled simplex. The envelope therefore dominates the likelihood on
    the whole proposal support, every acceptance probability lies in (0, 1],
    and the kept draws are exact posterior draws; the tighter the floor, the
    fewer proposals they cost. Raises :class:`RejectionBudgetError` if
    ``max_proposals`` runs out first.
    """
    problem = Problem.of(data, prior, spec)
    if rng is None:
        rng = round_rng(cfg.seed, 0)
    return _rejection(problem, prior, cfg, rng)


def importance_sample(
    data: Dataset,
    prior: DirichletParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> WeightedSampleSet:
    """Weight L prior draws by the likelihood: log w_l = -RSS(C omega_l)/2.

    These log weights assume unit noise variance (see `balson.model`).

    Log weights are shifted by their maximum before exponentiation so the
    normalization cannot underflow at realistic data sizes.
    """
    problem = Problem.of(data, prior, spec)
    if rng is None:
        rng = round_rng(cfg.seed, 0)
    return _importance(problem, prior, cfg, rng)


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


def _iterated(
    problem: Problem,
    prior: DirichletParams,
    cfg: SamplerConfig,
    first: str,
    trace: list[RoundRecord] | None = None,
    refine: bool = True,
) -> DirichletParams:
    """The sampling loop of all four schemes; returns the last moment-matched fit.

    Round 0 runs ``first`` ("rs" or "is") against ``prior``, and each of the
    R = ``cfg.resample_rounds`` refinement rounds importance-samples from the
    previous round's fit. With ``refine=False`` round 0 runs alone, which is
    the RS or IS scheme, and its errors carry no round prefix.
    """
    rows = cfg.sample_count
    if first == "rs":
        rows = max(rows, min(_CHUNK, cfg.max_proposals))
    ws = _Workspace(rows, len(prior))
    alpha = prior
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
        if trace is not None:
            trace.append(
                RoundRecord(
                    index=rnd,
                    kind=kind,
                    ess=batch.ess,
                    acceptance_rate=batch.acceptance_rate,
                    proposals=batch.proposals,
                    alpha=alpha.alpha.copy(),
                )
            )
    return alpha


def rsirs(
    data: Dataset,
    prior: DirichletParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    trace: list[RoundRecord] | None = None,
) -> DirichletParams:
    """Rejection pass, then R importance-refinement rounds.

    Round 0 rejection-samples against the prior and moment-matches the result;
    each later round importance-samples with proposal and prior both set to
    the previous round's Dirichlet fit, then moment-matches again. Returns the
    final concentration vector.
    """
    return _iterated(Problem.of(data, prior, spec), prior, cfg, "rs", trace)


def isirs(
    data: Dataset,
    prior: DirichletParams,
    spec: ModelSpec,
    cfg: SamplerConfig,
    trace: list[RoundRecord] | None = None,
) -> DirichletParams:
    """Same refinement loop as :func:`rsirs` but round 0 is an importance pass."""
    return _iterated(Problem.of(data, prior, spec), prior, cfg, "is", trace)
