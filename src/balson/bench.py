"""Benchmark harness: seeded data generation, multi-method runs, summary tables.

Within one repetition every method fits the identical training set (see
:func:`generate_dataset`), and each row's solver seed is
:func:`method_seed`'s, so sequential and parallel schedules produce the same
table after the final deterministic sort.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, bayesian_lasso_fit, ip_fit, lasso_fit
from .bench_output import QUALITY, RunRecord, write_outputs
from .exceptions import BalsonError, DegenerateStatisticError
from .metrics import mse, paired_t_test, sparsity
from .model import Dataset, ModelSpec, integral, predict, seed_field
from .samplers import SamplerConfig
from .solver import METHODS, BalsonConfig, solve, uniform_prior

PAPER_THETA = (0.0013, 0.0380, 0.0102, 0.9082, 0.0423)
BASELINE_METHODS = ("LASSO", "IP", "BayesianLASSO")
BALSON_METHODS = tuple(f"BALSON-{m}" for m in METHODS)
ALL_METHODS = BASELINE_METHODS + BALSON_METHODS


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment definition; defaults reproduce the polynomial benchmark.

    Row seeds come from ``base_seed`` alone (see :func:`method_seed`).
    """

    true_theta: tuple[float, ...] = PAPER_THETA
    n_train: int = 100
    n_test: int = 1000
    budget: float = 1.0
    repetitions: int = 100
    methods: tuple[str, ...] = ALL_METHODS
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        try:  # a string or a single number makes a 0-d array, which does not iterate
            theta = tuple(float(t) for t in np.asarray(self.true_theta, dtype=np.float64))
        except (TypeError, ValueError):
            raise ValueError("true_theta must be a list of numbers") from None
        object.__setattr__(self, "true_theta", theta)
        if isinstance(self.methods, str) or not np.iterable(self.methods):
            raise ValueError("methods must be a list of method names")
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("n_train", "n_test", "repetitions", "workers"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        object.__setattr__(self, "base_seed", seed_field(self.base_seed, "base_seed"))
        if len(theta) < 2 or any(t < 0 or not np.isfinite(t) for t in theta):
            raise ValueError("true_theta must be nonnegative, finite, length >= 2")
        ModelSpec(len(theta), self.budget)
        if self.n_train < len(theta) or self.n_train < 2:
            raise ValueError("n_train must be at least the coefficient count (and >= 2)")
        if self.n_test < 2:
            raise ValueError("n_test must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def order(self) -> int:
        return len(self.true_theta)


@dataclass(frozen=True)
class ResultTable:
    config: ExperimentConfig
    rows: tuple[RunRecord, ...]


@dataclass(frozen=True)
class Summary:
    """Per-method metric means plus the significance matrices of the paper tables."""

    method_means: dict  # method -> {"mean_<metric>" for each QUALITY metric, "n_ok"}
    pvalues: dict  # metric -> balson method -> baseline -> float | None (degenerate)


def generate_dataset(cfg: ExperimentConfig, repetition: int):
    """Equally spaced inputs on [0, 1], unit-variance Gaussian target noise.

    Returns (training dataset, test inputs, noise-free test curve). The noise
    stream is (base_seed, repetition); inputs never vary across repetitions.
    """
    train_x = np.linspace(0.0, 1.0, cfg.n_train)
    rng = np.random.default_rng([cfg.base_seed, repetition])
    train_y = predict(np.asarray(cfg.true_theta), train_x) + rng.standard_normal(cfg.n_train)
    test_x = np.linspace(0.0, 1.0, cfg.n_test)
    test_truth = predict(np.asarray(cfg.true_theta), test_x)
    return Dataset(train_x, train_y), test_x, test_truth


def dataset_digest(data: Dataset) -> str:
    h = hashlib.sha256()
    h.update(data.inputs.tobytes())
    h.update(data.targets.tobytes())
    return h.hexdigest()


def method_seed(base_seed: int, repetition: int, method: str) -> int:
    """The solver seed of one row, from (base_seed, repetition, method).

    It does not depend on which methods are enabled or on the schedule. It
    overrides only ``sampler.seed``, which therefore changes no row although
    ``config.json`` echoes it (the Bayesian LASSO takes its generator from
    this seed, having none of its own): vary ``base_seed`` instead.
    """
    index = ALL_METHODS.index(method)
    state = np.random.SeedSequence([base_seed, repetition, index]).generate_state(1, np.uint64)
    return int(state[0])


def _fit_one(method: str, train: Dataset, cfg: ExperimentConfig, seed: int):
    spec = ModelSpec(cfg.order, cfg.budget)
    if method == "LASSO":
        return np.asarray(lasso_fit(train, spec, cfg.baselines)), {}
    if method == "IP":
        return ip_fit(train, spec, cfg.baselines).theta, {}
    if method == "BayesianLASSO":
        rng = np.random.default_rng([seed])
        return np.asarray(bayesian_lasso_fit(train, spec, cfg.baselines, rng)), {}
    scheme = method.removeprefix("BALSON-")
    sampler = dataclasses.replace(cfg.sampler, seed=seed)
    balson_cfg = BalsonConfig(
        method=scheme, prior=uniform_prior(cfg.order), spec=spec, sampler=sampler
    )
    report = solve(train, balson_cfg)
    diag = report.diagnostics
    return report.theta_star.theta, {
        "acceptance_rate": diag.acceptance_rate,
        "proposals": diag.proposals,
        "ess_final": diag.ess_per_round[-1],
        "ess_min": min(diag.ess_per_round),
        "alpha0_final": diag.alpha0_trajectory[-1],
    }


def _repetition_rows(cfg: ExperimentConfig, repetition: int) -> list[RunRecord]:
    train, test_x, test_truth = generate_dataset(cfg, repetition)
    digest = dataset_digest(train)
    rows = []
    for method in cfg.methods:
        seed = method_seed(cfg.base_seed, repetition, method)
        started = time.perf_counter()
        try:
            theta, diag = _fit_one(method, train, cfg, seed)
            outcome = dict(
                diag,
                mse=mse(test_truth, predict(theta, test_x)),
                sparsity=sparsity(theta),
                theta=tuple(float(t) for t in theta),
            )
            error = None
        except BalsonError as err:
            outcome, error = {}, str(err)
        except Exception as err:  # any other fault fails its row, not the run
            outcome, error = {}, f"{type(err).__name__}: {err}"
        rows.append(
            RunRecord(
                method=method,
                repetition=repetition,
                seed=seed,
                dataset_sha256=digest,
                wall_clock_s=time.perf_counter() - started,
                error=error,
                **outcome,
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run every enabled method on every repetition's shared dataset."""
    reps = range(cfg.repetitions)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(partial(_repetition_rows, cfg), reps))
    else:
        chunks = [_repetition_rows(cfg, rep) for rep in reps]
    rows = [record for chunk in chunks for record in chunk]
    rows.sort(key=lambda r: (cfg.methods.index(r.method), r.repetition))
    return ResultTable(config=cfg, rows=tuple(rows))


def _pvalue(a: dict[int, float], b: dict[int, float]) -> float | None:
    """Paired t-test p-value over the repetitions both series share; None if degenerate."""
    shared = sorted(set(a) & set(b))
    if len(shared) < 2:
        return None
    try:
        return paired_t_test([a[i] for i in shared], [b[i] for i in shared])[1]
    except DegenerateStatisticError:
        return None


def summarize(table: ResultTable) -> Summary:
    """Per-method means and paired significance of each sampler variant vs each baseline."""
    methods = table.config.methods
    # (method, metric) -> {repetition: value} over the method's successful rows.
    ok = [r for r in table.rows if r.error is None]
    series = {
        (m, q): {r.repetition: getattr(r, q) for r in ok if r.method == m}
        for m in methods
        for q in QUALITY
    }
    means = {}
    for method in methods:
        # Every metric's series holds one value per successful row.
        values = {q: list(series[method, q].values()) for q in QUALITY}
        means[method] = {f"mean_{q}": float(np.mean(v)) if v else None for q, v in values.items()}
        means[method]["n_ok"] = len(values[QUALITY[0]])
    variants = [m for m in BALSON_METHODS if m in methods]
    baselines = [m for m in BASELINE_METHODS if m in methods]
    pvalues = {
        q: {v: {b: _pvalue(series[v, q], series[b, q]) for b in baselines} for v in variants}
        for q in QUALITY
    }
    return Summary(method_means=means, pvalues=pvalues)


def config_echo(cfg: ExperimentConfig) -> dict:
    """Experiment definition as plain data that :func:`config_from_mapping` reads back.

    The scheduling knob ``workers`` and the ignored ``baselines.lasso`` are left out.
    """
    echo = dataclasses.asdict(cfg)
    echo.pop("workers")
    echo["baselines"].pop("lasso")
    return echo


def _build(cls, raw, path: str):
    """``cls(**raw)``, each field whose default is a dataclass built from its
    own section the same way. ``path`` names the section in messages ("" at
    the top, else e.g. "baselines.gibbs"). Raises ValueError if a section is
    not an object, has keys that its class has no field for, or holds a
    value that its class rejects; a nested section's path leads the message."""
    what = f"{path} config".lstrip()
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    factories = {f.name: f.default_factory for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(factories)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {
        name: _build(factories[name], value, f"{path}.{name}".lstrip("."))
        if dataclasses.is_dataclass(factories[name])
        else value
        for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        if isinstance(err, ValueError) and not path:
            raise  # a top-level field's message already names the field
        raise ValueError(f"{what}: {err}") from err


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON; omitted fields keep benchmark defaults."""
    baselines = raw.get("baselines") if isinstance(raw, dict) else None
    if isinstance(baselines, dict) and "lasso" in baselines:
        warnings.warn(
            'the "lasso" baseline key is deprecated and ignored: LASSO runs on the '
            'QP core with the "ip" tolerance',
            DeprecationWarning,
            stacklevel=2,
        )
    return _build(ExperimentConfig, raw, "")


def emit_outputs(table: ResultTable, summary: Summary, out_dir, svg: bool = False) -> list[Path]:
    """Write config echo, raw rows, summary, p-value matrices, curve data, and plots.

    Returns the list of files written. With no methods enabled only the config
    echo is produced.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        manifest = [out / "config.json"]
        (out / "config.json").write_text(
            json.dumps(config_echo(table.config), indent=2, sort_keys=True) + "\n"
        )
        if table.config.methods:
            manifest.extend(write_outputs(table, summary, out, svg))
        return manifest
    except OSError as err:
        raise OSError(f"failed writing benchmark outputs under {out}: {err}") from err
