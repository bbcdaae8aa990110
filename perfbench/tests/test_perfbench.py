"""The benchmark's own tests: metric names, tiny runs of each workload, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads
from balson.baselines import GibbsParams
from balson.samplers import SamplerConfig

BENCH_DIR = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SAMPLER = SamplerConfig(sample_count=200, resample_rounds=3)
TINY_GIBBS = GibbsParams(iterations=40, burn_in=20)
TINY = {
    "paper": workloads.Size(
        n_train=20,
        repetitions=2,
        batch={"is": 2, "ip": 2, "lasso": 2},
        sampler=TINY_SAMPLER,
        gibbs=TINY_GIBBS,
    ),
    "large_n": workloads.Size(n_train=300, batch={"is": 2, "ip": 2}, sampler=TINY_SAMPLER, gibbs=TINY_GIBBS),
    "signed": workloads.Size(
        n_train=100,
        batch={"is": 2, "ip": 2},
        sampler=SamplerConfig(sample_count=200, resample_rounds=3, max_proposals=2000),
        gibbs=TINY_GIBBS,
    ),
}


def tiny(name, tmp_path):
    return workloads.WORKLOADS[name](TINY[name], tmp_path / name)


def test_metric_names_match_benchmark_json_and_pattern():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == harness.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == harness.PER_LAYER
    for name in [*harness.END_TO_END, *harness.PER_LAYER, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_completes_with_every_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    passes, metrics, problems = harness.untraced(workload, 0.0, 0.0)
    assert problems == []
    assert len(passes) == harness.MIN_PASSES
    assert set(metrics) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    attempted, failed = harness.counts(passes)
    assert attempted > failed >= 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    workload = tiny(name, tmp_path)
    plain = workload.run_pass()
    with tracing.Tracer():
        hooked = workload.run_pass()
    assert [f.method for f in hooked.fits] == [f.method for f in plain.fits]
    for a, b in zip(plain.fits, hooked.fits):
        assert a.error == b.error
        assert (a.theta is None and b.theta is None) or np.array_equal(a.theta, b.theta)
    _, metrics, problems, absent = harness.traced(workload, 0.0)
    assert problems == [] and absent == []
    assert set(metrics) | {"host.calib_ms"} == set(harness.PER_LAYER)


def test_tracer_restores_every_hooked_name():
    from balson import model, samplers, solver

    before = (samplers.sample_batch, model.ResidualForm.rss, solver._solve_design)
    with tracing.Tracer():
        assert samplers.sample_batch is not before[0]
    assert (samplers.sample_batch, model.ResidualForm.rss, solver._solve_design) == before


def test_missing_hook_target_is_reported_absent(tmp_path):
    hooks = dict(tracing.HOOKS)
    hooks["dirichlet.mode"] = (("solver:no_such_function",), None)
    hooks["samplers.min_rss"] = (("nosuchmodule:min_rss",), None)
    workload = tiny("large_n", tmp_path)
    with tracing.Tracer(hooks) as tracer:
        workload.run_pass()
    values, absent = tracer.metrics()
    assert absent == ["samplers.min_rss.self_s", "samplers.min_rss.calls", "dirichlet.mode.self_s"]
    assert values["dirichlet.sample_batch.rows"] > 0


def test_output_checks_catch_bad_coefficients():
    def fit(theta, constraint):
        return workloads.Fit("x", 1, np.asarray(theta, dtype=float), None, constraint)

    assert workloads.check_theta(fit([0.5, 0.5], "simplex")) is None
    assert workloads.check_theta(fit([0.5, np.nan], "free"))
    assert workloads.check_theta(fit([1.2, -0.2], "simplex"))
    assert workloads.check_theta(fit([0.6, 0.4 + 1e-6], "simplex"))
    assert workloads.check_theta(fit([0.6, -0.4], "signed")) is None
    assert workloads.check_theta(fit([0.6, -0.5], "signed"))
    assert workloads.check_theta(fit([3.0, -2.0], "free")) is None


def test_run_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
