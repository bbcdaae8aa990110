"""Per-layer tracing from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, the names through
which one balson layer calls another (``samplers.sample_batch``,
``model.ResidualForm.rss``, ``bench.lasso_fit``, ...) with wrappers that time
each call as a span and count the work it was given. A span's self time is
its duration minus the time of the spans it caused. The wrappers call the
original and return its result untouched, so tracing changes no result.

A hook whose target name no longer exists, for example after a refactor, is
skipped; the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import re
import time
from collections import defaultdict
from pathlib import Path

from balson import baselines, bench, model, samplers, solver
from balson.exceptions import BalsonError

MODULES = {
    "baselines": baselines,
    "bench": bench,
    "model": model,
    "samplers": samplers,
    "solver": solver,
}
# The RS failure message is the only place a failed pass reports its acceptances.
_RS_ACCEPTED = re.compile(r"(\d+) proposals yielded (\d+) acceptances")


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _observe_sample_batch(tracer, frame, args, kwargs, result, error):
    tracer.totals["dirichlet.sample_batch.rows"] += int(_arg(args, kwargs, 2, "count"))


def _observe_rss(tracer, frame, args, kwargs, result, error):
    thetas = _arg(args, kwargs, 1, "thetas")
    tracer.totals["model.ResidualForm.rss.rows"] += 1 if thetas.ndim == 1 else thetas.shape[0]


def _observe_rs(tracer, frame, args, kwargs, result, error):
    proposals = tracer.totals["dirichlet.sample_batch.rows"] - frame.rows_at_start
    if result is not None:
        accepted = round(result.acceptance_rate * proposals)
    else:
        match = _RS_ACCEPTED.search(str(error))
        if match is None:
            raise ValueError("rejection failure message carries no acceptance count")
        accepted = int(match.group(2))
    tracer.totals["samplers.rs.proposals"] += proposals
    tracer.totals["samplers.rs.accepted"] += accepted


def _observe_solve(tracer, frame, args, kwargs, result, error):
    if result is None:
        return
    cfg = _arg(args, kwargs, 2, "cfg")
    ess = result.diagnostics.ess_per_round
    tracer.totals["solver.rounds"] += len(ess)
    frac = min(ess) / cfg.sampler.sample_count
    tracer.ess_min_frac = min(tracer.ess_min_frac, frac)


def _observe_write_outputs(tracer, frame, args, kwargs, result, error):
    if result is not None:
        tracer.totals["bench_output.write_outputs.bytes"] += sum(Path(p).stat().st_size for p in result)


# span -> (targets "module:attribute.path", observer or None). A span's
# targets are every name its callers reach it through.
HOOKS = {
    "dirichlet.sample_batch": (("samplers:sample_batch",), _observe_sample_batch),
    "model.ResidualForm.init": (("model:ResidualForm.__init__",), None),
    "model.ResidualForm.rss": (("model:ResidualForm.rss",), _observe_rss),
    "samplers.min_rss": (("samplers:min_rss",), None),
    "samplers.rs": (("samplers:_rejection", "solver:_rejection"), _observe_rs),
    "samplers.WeightedSampleSet.validate": (("samplers:WeightedSampleSet.__post_init__",), None),
    "samplers.normalize_log_weights": (("samplers:normalize_log_weights",), None),
    "samplers.weighted_moments": (("samplers:weighted_moments", "solver:weighted_moments"), None),
    "dirichlet.match_moments_per_dim": (
        ("samplers:match_moments_per_dim", "solver:match_moments_per_dim"),
        None,
    ),
    "dirichlet.mode": (("solver:mode",), None),
    "solver.solve": (("solver:_solve_design",), _observe_solve),
    "baselines.lasso_fit": (("bench:lasso_fit", "baselines:lasso_fit"), None),
    "baselines.lasso_coordinate_descent": (("baselines:lasso_coordinate_descent",), None),
    "baselines.bayesian_lasso_fit": (
        ("bench:bayesian_lasso_fit", "baselines:bayesian_lasso_fit"),
        None,
    ),
    "baselines.ip_solve": (("baselines:ip_solve",), None),
    "bench.summarize": (("bench:summarize",), None),
    "metrics.paired_t_test": (("bench:paired_t_test",), None),
    "bench_output.write_outputs": (("bench:write_outputs",), _observe_write_outputs),
    "model.design_matrix": (
        (
            "model:design_matrix",
            "samplers:design_matrix",
            "solver:design_matrix",
            "baselines:design_matrix",
        ),
        None,
    ),
    "bench.generate_dataset": (("bench:generate_dataset",), None),
}

# Reported metric -> (unit, better, span it needs, total it reads). Every
# value is a total over one traced pass.
LAYER_METRICS = {
    "dirichlet.sample_batch.self_s": ("s", "lower", "dirichlet.sample_batch", None),
    "dirichlet.sample_batch.rows": ("count", "lower", "dirichlet.sample_batch", None),
    "model.ResidualForm.builds": ("count", "lower", "model.ResidualForm.init", "model.ResidualForm.init.calls"),
    "model.ResidualForm.build_s": ("s", "lower", "model.ResidualForm.init", "model.ResidualForm.init.self_s"),
    "model.ResidualForm.rss.self_s": ("s", "lower", "model.ResidualForm.rss", None),
    "model.ResidualForm.rss.rows": ("count", "lower", "model.ResidualForm.rss", None),
    "samplers.min_rss.self_s": ("s", "lower", "samplers.min_rss", None),
    "samplers.min_rss.calls": ("count", "lower", "samplers.min_rss", None),
    "samplers.rs.proposals": ("count", "lower", "samplers.rs", None),
    "samplers.rs.accept_ratio": ("1", "higher", "samplers.rs", None),
    "samplers.WeightedSampleSet.validate_s": (
        "s",
        "lower",
        "samplers.WeightedSampleSet.validate",
        "samplers.WeightedSampleSet.validate.self_s",
    ),
    "samplers.normalize_log_weights.self_s": ("s", "lower", "samplers.normalize_log_weights", None),
    "samplers.weighted_moments.self_s": ("s", "lower", "samplers.weighted_moments", None),
    "dirichlet.match_moments_per_dim.self_s": ("s", "lower", "dirichlet.match_moments_per_dim", None),
    "dirichlet.mode.self_s": ("s", "lower", "dirichlet.mode", None),
    "solver.rounds": ("count", "lower", "solver.solve", None),
    "solver.ess_min_frac": ("1", "higher", "solver.solve", None),
    "solver.solve.self_s": ("s", "lower", "solver.solve", None),
    "baselines.lasso_fit.self_s": ("s", "lower", "baselines.lasso_fit", None),
    "baselines.lasso_coordinate_descent.calls": ("count", "lower", "baselines.lasso_coordinate_descent", None),
    "baselines.bayesian_lasso_fit.self_s": ("s", "lower", "baselines.bayesian_lasso_fit", None),
    "baselines.ip_solve.self_s": ("s", "lower", "baselines.ip_solve", None),
    "baselines.ip_solve.calls": ("count", "lower", "baselines.ip_solve", None),
    "bench.summarize.self_s": ("s", "lower", "bench.summarize", None),
    "metrics.paired_t_test.calls": ("count", "lower", "metrics.paired_t_test", None),
    "bench_output.write_outputs.self_s": ("s", "lower", "bench_output.write_outputs", None),
    "bench_output.write_outputs.bytes": ("bytes", "lower", "bench_output.write_outputs", None),
    "model.design_matrix.self_s": ("s", "lower", "model.design_matrix", None),
    "bench.generate_dataset.self_s": ("s", "lower", "bench.generate_dataset", None),
}


class _Frame:
    __slots__ = ("child_s", "rows_at_start")

    def __init__(self, rows_at_start: float):
        self.child_s = 0.0
        self.rows_at_start = rows_at_start


class Tracer:
    """Context manager that installs the hooks in HOOKS and removes them on exit."""

    def __init__(self, hooks: dict = HOOKS):
        self.hooks = hooks
        self.totals: dict[str, float] = defaultdict(float)
        self.ess_min_frac = float("inf")
        self.broken: set[str] = set()  # spans whose observer failed on this program
        self._installed: set[str] = set()  # spans with at least one hooked target
        self._stack: list[_Frame] = []
        self._restore: list = []

    def __enter__(self) -> Tracer:
        for span, (targets, observe) in self.hooks.items():
            for target in targets:
                if self._install(span, target, observe):
                    self._installed.add(span)
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _install(self, span: str, target: str, observe) -> bool:
        module_name, _, path = target.partition(":")
        owner = MODULES.get(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return False
        if isinstance(owner, type) and attr not in vars(owner):
            return False
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(span, original, observe))
        self._restore.append(lambda: setattr(owner, attr, original))
        return True

    def _wrap(self, span: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(tracer.totals["dirichlet.sample_batch.rows"])
            tracer._stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BalsonError as err:
                error = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1].child_s += elapsed
                tracer.totals[span + ".self_s"] += elapsed - frame.child_s
                tracer.totals[span + ".calls"] += 1
                if observe is not None and (result is not None or error is not None):
                    try:
                        observe(tracer, frame, args, kwargs, result, error)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        tracer.broken.add(span)

        return wrapper

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Values of LAYER_METRICS from this trace, and the names that are absent."""
        values, absent = {}, []
        for name, (_, _, span, key) in LAYER_METRICS.items():
            from_observer = key is None and not name.endswith((".self_s", ".calls"))
            if span not in self._installed or (from_observer and span in self.broken):
                absent.append(name)
            elif name == "samplers.rs.accept_ratio":
                proposals = self.totals["samplers.rs.proposals"]
                values[name] = self.totals["samplers.rs.accepted"] / proposals if proposals else 0.0
            elif name == "solver.ess_min_frac":
                values[name] = self.ess_min_frac if self.ess_min_frac != float("inf") else -1.0
            else:
                values[name] = float(self.totals[key or name])
        return values, absent
