"""Timed passes, output checks and metric aggregation for one benchmark run.

A run sets its workload up several times, then repeats the workload's pass
(a fixed unit of work) until the next pass would end after ``--seconds``, and
at least MIN_PASSES times. Every pass repeats identical work, so each timing
is a median over the repeats of the same fit: other load on the host slows
some repeats, and the median is what a typical repeat costs.
"""

from __future__ import annotations

import ctypes
import glob
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, Tracer
from workloads import METHODS, check_theta

MIN_PASSES = 3
SETUP_REPEATS = 3
# Start no pass after this, so a run on a slow host still ends well within 180 s.
PASS_DEADLINE_S = 120.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rs_ms": ("ms", "lower"),
    "is_ms": ("ms", "lower"),
    "rsirs_ms": ("ms", "lower"),
    "isirs_ms": ("ms", "lower"),
    "lasso_ms": ("ms", "lower"),
    "ip_ms": ("ms", "lower"),
    "blasso_ms": ("ms", "lower"),
    "isirs_mse": ("1", "lower"),
}

# Per-layer metrics beyond the tracer's own: name -> (unit, better).
EXTRA_LAYER_METRICS = {"trace.overhead_s": ("s", "lower"), "host.calib_ms": ("ms", "lower")}
for _method in METHODS:
    EXTRA_LAYER_METRICS[f"quality.{_method}.mse"] = ("1", "lower")
    EXTRA_LAYER_METRICS[f"quality.{_method}.sparsity"] = ("1", "higher")
    EXTRA_LAYER_METRICS[f"quality.{_method}.failed"] = ("count", "lower")
PER_LAYER = {name: spec[:2] for name, spec in LAYER_METRICS.items()} | EXTRA_LAYER_METRICS


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None where that cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate(repeats: int = 5) -> list[float]:
    """Milliseconds per run of a fixed reference kernel, one sample per repeat.

    It shares no code with balson, so a change in it between runs points at
    the host, not at the program.
    """
    a = np.random.default_rng([0]).standard_normal((160, 160)) / 16.0
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a)
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def check_passes(passes) -> list[str]:
    """Output checks over every pass; every pass must equal the first bit for bit."""
    problems = []
    reference = passes[0]
    for index, p in enumerate(passes):
        problems.extend(p.problems)
        problems.extend(filter(None, (check_theta(f) for f in p.fits if f.error is None)))
        same = len(p.fits) == len(reference.fits) and all(
            a.method == b.method
            and (a.error is None) == (b.error is None)
            and (a.theta is None or np.array_equal(a.theta, b.theta))
            for a, b in zip(p.fits, reference.fits)
        )
        if not same:
            problems.append(f"pass {index}: coefficients differ from the reference pass")
    return problems


def quality(p) -> dict:
    """Per-method mean test MSE and sparsity over the pass's successful fits."""
    out = {}
    for method in METHODS:
        fits = [f for f in p.fits if f.method == method]
        ok = [f for f in fits if f.error is None]
        out[method] = {
            "mse": statistics.fmean(f.mse for f in ok) if ok else None,
            "sparsity": statistics.fmean(f.sparsity for f in ok) if ok else None,
            "failed": len(fits) - len(ok),
        }
    return out


def counts(passes) -> tuple[int, int]:
    """Fits attempted and fits that raised BalsonError, batches counted per fit."""
    fits = [f for p in passes for f in p.fits]
    return sum(f.repeats for f in fits), sum(f.repeats for f in fits if f.error is not None)


def per_fit_seconds(passes, method: str) -> float:
    """Mean over the method's distinct fits of the median time of each fit's repeats."""
    units = zip(*(p.timing[method] for p in passes))
    return statistics.fmean(statistics.median(t for samples in unit for t in samples) for unit in units)


def run_passes(run_one, seconds: float, min_passes: int) -> list:
    """Repeat ``run_one`` until the next repeat would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        item_start = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        elapsed = now - start
        if len(results) >= min_passes and elapsed + (now - item_start) > seconds:
            return results
        if elapsed > PASS_DEADLINE_S:
            return results


def untraced(workload, seconds: float, import_s: float):
    """End-to-end metrics: returns (passes, metrics, problems)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    passes = run_passes(workload.run_pass, seconds, MIN_PASSES)
    problems = check_passes(passes)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for method in METHODS:
        values[f"{method}_ms"] = 1000.0 * per_fit_seconds(passes, method)
    isirs_mse = quality(passes[0])["isirs"]["mse"]
    if isirs_mse is None:
        problems.append("isirs: no ISIRS fit succeeded, so isirs_mse is undefined")
    else:
        values["isirs_mse"] = isirs_mse
    metrics = {name: {"value": v, "unit": END_TO_END[name][0]} for name, v in values.items()}
    return passes, metrics, problems


def traced(workload, seconds: float):
    """Per-layer metrics: returns (passes, metrics, problems, absent names).

    Untraced and traced passes alternate, and every pass must return the same
    coefficients as the first untraced one, bit for bit. Per-layer values are
    medians over the traced passes of their per-pass totals.
    """
    workload.setup()

    def pair():
        plain = workload.run_pass()
        with Tracer() as tracer:
            hooked = workload.run_pass()
        return plain, hooked, tracer

    pairs = run_passes(pair, seconds, 1)
    passes = [p for plain, hooked, _ in pairs for p in (plain, hooked)]
    problems = check_passes(passes)
    layers = [tracer.metrics() for _, _, tracer in pairs]
    absent = layers[-1][1]
    values = {
        name: statistics.median(values[name] for values, _ in layers)
        for name in LAYER_METRICS
        if name not in absent
    }
    for method, q in quality(pairs[-1][1]).items():
        values[f"quality.{method}.mse"] = -1.0 if q["mse"] is None else q["mse"]
        values[f"quality.{method}.sparsity"] = -1.0 if q["sparsity"] is None else q["sparsity"]
        values[f"quality.{method}.failed"] = float(q["failed"])
    values["trace.overhead_s"] = statistics.median(hooked.wall_s - plain.wall_s for plain, hooked, _ in pairs)
    metrics = {name: {"value": v, "unit": PER_LAYER[name][0]} for name, v in values.items()}
    return passes, metrics, problems, absent
