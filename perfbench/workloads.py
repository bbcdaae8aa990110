"""The three workloads: fixed inputs, one pass of fixed work, and its output checks.

Every dataset and every Monte-Carlo and Gibbs seed of a workload is fixed, so
each pass of each run does the same work and returns the same coefficients,
bit for bit. Differences between the timings of two runs are then host noise
alone. README.md says why the inputs do not vary with the run's ``--seed``.

All calls into the program go through module attributes (``solver.solve``,
``baselines.ip_fit``, ...) at call time, so the timing wrappers of
``tracing.Tracer`` see them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from balson import baselines, bench, metrics, model, solver
from balson.baselines import BaselineConfig, GibbsParams, LassoParams
from balson.exceptions import BalsonError
from balson.model import Dataset, ModelSpec
from balson.samplers import SamplerConfig

METHODS = ("rs", "is", "rsirs", "isirs", "lasso", "ip", "blasso")
BENCH_NAMES = {
    "rs": "BALSON-RS",
    "is": "BALSON-IS",
    "rsirs": "BALSON-RSIRS",
    "isirs": "BALSON-ISIRS",
    "lasso": "LASSO",
    "ip": "IP",
    "blasso": "BayesianLASSO",
}
FROM_BENCH = {name: method for method, name in BENCH_NAMES.items()}
BUDGET = 1.0
BUDGET_RTOL = 1e-9
# The paper bench's base seed: data noise and per-method seeds of repetition r
# come from (BASE_SEED, r), exactly as `balson bench` with a `{}` config.
BASE_SEED = 0
# Mixed-sign, sparse coefficients for `signed`; sum |theta| = 0.95 <= BUDGET.
SIGNED_THETA = (0.0, 0.5, 0.0, -0.3, 0.0, 0.0, 0.0, 0.0, 0.15, 0.0)


@dataclass(frozen=True)
class Size:
    """How much work one pass does; the defaults are the benchmark's sizes."""

    n_train: int
    repetitions: int = 1
    # Fits that take milliseconds are timed this many times back to back, for
    # enough samples to take a steady median: method -> repeats.
    batch: dict[str, int] = field(default_factory=lambda: {"is": 20, "ip": 20})
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    gibbs: GibbsParams = field(default_factory=GibbsParams)


@dataclass
class Fit:
    """One distinct fit of a pass; a batch of identical fits is one Fit."""

    method: str
    repeats: int
    theta: np.ndarray | None  # None when the fit raised BalsonError
    error: str | None
    constraint: str  # "simplex", "signed" or "free"
    mse: float | None = None
    sparsity: float | None = None


@dataclass
class Pass:
    """What one pass of a workload did and how long each part took."""

    wall_s: float
    # method -> one list per distinct fit, holding the seconds of each of its
    # repeats; the same fit has the same index in every pass.
    timing: dict[str, list[list[float]]]
    fits: list[Fit]
    problems: list[str]  # violated output checks


@dataclass(frozen=True)
class Problem:
    data: Dataset
    test_x: np.ndarray
    truth: np.ndarray
    order: int  # coefficients; the signed order for signed problems
    signed: bool
    repetition: int = 0  # the paper bench repetition whose seeds the fits use


def constraint_of(method: str, signed: bool) -> str:
    if method in ("lasso", "blasso"):
        return "free"
    return "signed" if signed else "simplex"


def check_theta(fit: Fit) -> str | None:
    """Output checks on one successful fit; returns what is wrong, if anything."""
    theta = fit.theta
    if not np.all(np.isfinite(theta)):
        return f"{fit.method}: non-finite coefficients"
    limit = BUDGET * (1.0 + BUDGET_RTOL)
    if fit.constraint == "simplex":
        if np.any(theta < 0.0):
            return f"{fit.method}: negative coefficient {theta.min()!r}"
        if theta.sum() > limit:
            return f"{fit.method}: sum {theta.sum()!r} exceeds the budget"
    elif fit.constraint == "signed" and np.abs(theta).sum() > limit:
        return f"{fit.method}: L1 norm {np.abs(theta).sum()!r} exceeds the budget"
    return None


def fitters(problem: Problem, sampler: SamplerConfig, gibbs: GibbsParams, lasso: LassoParams):
    """One zero-argument callable per method, each returning coefficients.

    Seeds are those the paper bench gives the problem's repetition at BASE_SEED.
    """
    spec = ModelSpec(problem.order, BUDGET)
    base_cfg = BaselineConfig(lasso=lasso, gibbs=gibbs)
    data = problem.data
    width = 2 * problem.order if problem.signed else problem.order

    def seed(method):
        return bench.method_seed(BASE_SEED, problem.repetition, BENCH_NAMES[method])

    def balson(method):
        cfg = solver.BalsonConfig(
            method.upper(),
            solver.uniform_prior(width),
            spec,
            dataclasses.replace(sampler, seed=seed(method)),
        )
        if problem.signed:
            return lambda: solver.solve_signed(data, cfg)
        return lambda: solver.solve(data, cfg).theta_star.theta

    def ip():
        if problem.signed:
            half = model.design_matrix(data.inputs, problem.order)
            split = np.concatenate([half, -half], axis=1)
            return model.merge_signed(baselines.ip_solve(split, data.targets, BUDGET, base_cfg.ip))
        return baselines.ip_fit(data, spec, base_cfg).theta

    def blasso():
        rng = np.random.default_rng([seed("blasso")])
        return np.asarray(baselines.bayesian_lasso_fit(data, spec, base_cfg, rng))

    fns = {m: balson(m) for m in ("rs", "is", "rsirs", "isirs")}
    fns["lasso"] = lambda: np.asarray(baselines.lasso_fit(data, spec, base_cfg))
    fns["ip"] = ip
    fns["blasso"] = blasso
    return fns


def time_fit(method: str, fn: Callable, repeats: int, problem: Problem, problems: list[str]):
    """Run ``fn`` ``repeats`` times back to back; returns (seconds of each, Fit)."""
    results, seconds = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            results.append(fn())
        except BalsonError as err:
            results.append(err)
        seconds.append(time.perf_counter() - start)
    first = results[0]
    for other in results[1:]:
        if isinstance(first, BalsonError) != isinstance(other, BalsonError) or (
            not isinstance(first, BalsonError) and not np.array_equal(first, other)
        ):
            problems.append(f"{method}: back-to-back fits of one input differ")
            break
    fit = Fit(method, repeats, None, None, constraint_of(method, problem.signed))
    if isinstance(first, BalsonError):
        fit.error = str(first)
    else:
        fit.theta = np.array(first, dtype=np.float64)
        fitted = model.predict(fit.theta, problem.test_x)
        fit.mse = metrics.mse(problem.truth, fitted)
        fit.sparsity = metrics.sparsity(fit.theta)
    return seconds, fit


def warm_up(problem: Problem, size: Size) -> None:
    """One untimed, shortened fit of each method on the workload's own input.

    It touches every code path at the real array sizes (one full proposal
    chunk for RS), so first-call costs fall here and not in the timed passes.
    """
    sampler = dataclasses.replace(
        size.sampler,
        resample_rounds=min(2, size.sampler.resample_rounds),
        max_proposals=5 * size.sampler.sample_count,
    )
    fns = fitters(problem, sampler, GibbsParams(iterations=20, burn_in=10), LassoParams(max_bisections=3))
    for fn in fns.values():
        try:
            fn()
        except BalsonError:
            pass


class Workload:
    """A fixed problem set and one pass of fixed work over it."""

    name = ""

    def __init__(self, size: Size, out_dir: Path):
        self.size = size
        self.out_dir = out_dir

    def problem(self) -> Problem:
        raise NotImplementedError

    def setup(self) -> None:
        warm_up(self.problem(), self.size)

    def time_methods(self, methods, problem: Problem, timing: dict, fits: list, problems: list) -> None:
        fns = fitters(problem, self.size.sampler, self.size.gibbs, LassoParams())
        for method in methods:
            repeats = self.size.batch.get(method, 1)
            seconds, fit = time_fit(method, fns[method], repeats, problem, problems)
            timing.setdefault(method, []).append(seconds)
            fits.append(fit)

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        timing, fits, problems = {}, [], []
        self.time_methods(METHODS, self.problem(), timing, fits, problems)
        return Pass(time.perf_counter() - start, timing, fits, problems)


# RS cannot succeed on `large_n` or `signed` (a few thousand, respectively a
# few, acceptances in 10^7 proposals), so there its cap is 10^6 rather than the
# default 10^7: the same failure path at a tenth of the time, which leaves
# time for more passes.
FAILING_RS_SAMPLER = SamplerConfig(max_proposals=1_000_000)


class LargeN(Workload):
    """All seven methods on one N = 10^5, K = 5 instance of the paper's generator."""

    name = "large_n"
    default_size = Size(n_train=100_000, sampler=FAILING_RS_SAMPLER)

    def problem(self) -> Problem:
        cfg = bench.ExperimentConfig(n_train=self.size.n_train, base_seed=BASE_SEED)
        train, test_x, truth = bench.generate_dataset(cfg, 0)
        return Problem(train, test_x, truth, cfg.order, signed=False)


class Signed(Workload):
    """K = 10 sparse mixed-sign coefficients on [-1, 1]: 20 split dimensions."""

    name = "signed"
    default_size = Size(n_train=1000, sampler=FAILING_RS_SAMPLER)

    def problem(self) -> Problem:
        theta = np.asarray(SIGNED_THETA)
        x = np.linspace(-1.0, 1.0, self.size.n_train)
        noise = np.random.default_rng([BASE_SEED]).standard_normal(x.shape[0])
        data = Dataset(x, model.predict(theta, x) + noise)
        test_x = np.linspace(-1.0, 1.0, 1000)
        return Problem(data, test_x, model.predict(theta, test_x), theta.shape[0], signed=True)


class Paper(Workload):
    """`balson bench` at the paper defaults over its first repetitions, SVG on.

    Repetition 5 is one where RS and RSIRS exhaust their proposal budget, so
    that failure path is part of every pass. LASSO fits take 8-90 ms here, so
    LASSO is batched too.
    """

    name = "paper"
    default_size = Size(n_train=100, repetitions=6, batch={"is": 20, "ip": 20, "lasso": 5})

    def config(self) -> bench.ExperimentConfig:
        return bench.ExperimentConfig(
            n_train=self.size.n_train,
            repetitions=self.size.repetitions,
            sampler=self.size.sampler,
            baselines=BaselineConfig(gibbs=self.size.gibbs),
            base_seed=BASE_SEED,
            workers=1,
        )

    def problem(self, repetition: int = 0) -> Problem:
        cfg = self.config()
        train, test_x, truth = bench.generate_dataset(cfg, repetition)
        return Problem(train, test_x, truth, cfg.order, signed=False, repetition=repetition)

    def run_pass(self) -> Pass:
        """The bench path, then the batched methods refit on every repetition's data.

        The other methods' times are the bench rows' `wall_clock_s`.
        """
        start = time.perf_counter()
        cfg = self.config()
        table = bench.run_experiment(cfg)
        summary = bench.summarize(table)
        bench.emit_outputs(table, summary, self.out_dir, svg=True)
        timing, fits, problems = {}, [], []
        batch_fits = {}
        for rep in range(cfg.repetitions):
            self.time_methods(self.size.batch, self.problem(rep), timing, fits, problems)
            batch_fits.update({(f.method, rep): f for f in fits[-len(self.size.batch):]})
        wall_s = time.perf_counter() - start

        for row in table.rows:  # ordered by method, then repetition
            method = FROM_BENCH[row.method]
            theta = None if row.theta is None else np.asarray(row.theta)
            batch_fit = batch_fits.get((method, row.repetition))
            if batch_fit is not None:
                # The batch repeats this very fit, so the row is not a fit of its own.
                batch_fit.repeats += 1
                if batch_fit.error != row.error or (
                    theta is not None and not np.array_equal(theta, batch_fit.theta)
                ):
                    problems.append(
                        f"{method}: batch fit differs from the bench row of repetition {row.repetition}"
                    )
                continue
            timing.setdefault(method, []).append([row.wall_clock_s])
            constraint = constraint_of(method, signed=False)
            fits.append(Fit(method, 1, theta, row.error, constraint, row.mse, row.sparsity))
        expected = cfg.repetitions * len(cfg.methods)
        with (self.out_dir / "runs.csv").open() as handle:
            written = sum(1 for _ in handle) - 1
        if len(table.rows) != expected or written != expected:
            problems.append(f"paper: runs.csv has {written} rows, expected {expected}")
        return Pass(wall_s, timing, fits, problems)


WORKLOADS = {cls.name: cls for cls in (Paper, LargeN, Signed)}
