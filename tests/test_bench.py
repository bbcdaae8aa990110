import csv
import dataclasses
import json
import re
import warnings

import pytest

from balson import (
    BaselineConfig,
    ExperimentConfig,
    GibbsParams,
    IpParams,
    RunRecord,
    SamplerConfig,
    bench,
    emit_outputs,
    run_experiment,
    summarize,
)
from balson.bench import config_echo, config_from_mapping
from conftest import bench_outputs

TINY = ExperimentConfig(
    n_test=50,
    repetitions=3,
    sampler=SamplerConfig(sample_count=200, resample_rounds=2),
    baselines=BaselineConfig(gibbs=GibbsParams(iterations=60, burn_in=20)),
)
OUTPUT_FILES = {
    "config.json",
    "runs.csv",
    "summary.csv",
    "pvalues_mse.csv",
    "pvalues_sparsity.csv",
    "curves.csv",
    "curves.svg",
    "boxplot_mse.svg",
    "boxplot_sparsity.svg",
}
RUNS_HEADER = [
    "method",
    "repetition",
    "seed",
    "dataset_sha256",
    "mse",
    "sparsity",
    "acceptance_rate",
    "proposals",
    "ess_final",
    "ess_min",
    "alpha0_final",
    "wall_clock_s",
    "error",
]
SUMMARY_HEADER = ["method", "mean_mse", "mean_sparsity", "n_ok"]


def read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_config_echo_loads_back():
    cfg = ExperimentConfig(
        true_theta=(0.2, 0.0, 0.7),
        n_train=40,
        methods=("IP", "BALSON-ISIRS"),
        sampler=SamplerConfig(sample_count=300, resample_rounds=4, max_proposals=9000, seed=5),
        baselines=BaselineConfig(
            ip=IpParams(gap_tol=1e-8),
            gibbs=GibbsParams(iterations=90, burn_in=30),
        ),
        base_seed=11,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert config_from_mapping(json.loads(json.dumps(config_echo(cfg)))) == cfg


def bench_files(tmp_path, name, workers):
    out = tmp_path / name
    table = run_experiment(dataclasses.replace(TINY, workers=workers))
    written = emit_outputs(table, summarize(table), out, svg=True)
    assert {p.name for p in written} == OUTPUT_FILES
    return bench_outputs(out)


def test_outputs_are_reproducible_and_independent_of_workers(tmp_path):
    first = bench_files(tmp_path, "a", workers=1)
    assert len(first["runs.csv"]) == 3 * 7
    assert bench_files(tmp_path, "b", workers=1) == first
    assert bench_files(tmp_path, "c", workers=2) == first
    # Round 0's proposals and the smallest ESS over rounds; empty for baselines.
    for row in first["runs.csv"]:
        scheme = row["method"].removeprefix("BALSON-")
        if scheme == row["method"]:
            assert row["proposals"] == row["ess_min"] == ""
            continue
        proposals, ess_min = int(row["proposals"]), float(row["ess_min"])
        assert proposals >= 200 if scheme.startswith("RS") else proposals == 200
        assert 1.0 <= ess_min <= float(row["ess_final"]) <= 200.0
        if scheme in ("RS", "IS"):
            assert ess_min == float(row["ess_final"])


def test_failed_rows_leave_the_sampler_columns_empty(tmp_path):
    # 200 proposals cannot yield 200 acceptances at the paper's rate.
    cfg = dataclasses.replace(
        TINY,
        repetitions=2,
        methods=("IP", "BALSON-IS", "BALSON-RS"),
        sampler=SamplerConfig(sample_count=200, max_proposals=200),
    )
    table = run_experiment(cfg)
    emit_outputs(table, summarize(table), tmp_path, svg=True)
    runs = read_csv(tmp_path / "runs.csv")
    assert runs[0] == RUNS_HEADER
    rows = [dict(zip(runs[0], row)) for row in runs[1:] if row[0] == "BALSON-RS"]
    assert len(rows) == 2
    for row in rows:
        assert "proposals yielded" in row["error"]
        assert row["proposals"] == row["ess_min"] == row["acceptance_rate"] == ""

    # A method that fails every row gets no mean, p-value, curve or box.
    summary = read_csv(tmp_path / "summary.csv")
    assert summary[0] == SUMMARY_HEADER
    assert summary[3] == ["BALSON-RS", "", "", "0"]
    assert summary[2][0] == "BALSON-IS" and summary[2][3] == "2"
    for metric in ("mse", "sparsity"):
        header, rs_row, is_row = read_csv(tmp_path / f"pvalues_{metric}.csv")
        assert header == ["method", "IP"]
        assert is_row[0] == "BALSON-IS" and 0.0 <= float(is_row[1]) <= 1.0
        assert rs_row == ["BALSON-RS", "degenerate"]
        box = (tmp_path / f"boxplot_{metric}.svg").read_text()
        assert ">BALSON-IS</text>" in box and ">BALSON-RS</text>" not in box
    curves = read_csv(tmp_path / "curves.csv")
    assert curves[0] == ["x", "y_true", "IP", "BALSON-IS", "BALSON-RS"]
    assert len(curves) == 1 + cfg.n_test
    assert all(row[3] != "" and row[4] == "" for row in curves[1:])


def test_an_unexpected_error_fails_only_its_rows(monkeypatch):
    cfg = dataclasses.replace(TINY, repetitions=2)
    expected = run_experiment(cfg).rows

    def broken_ip_fit(*args):
        raise RuntimeError("factor lost")

    monkeypatch.setattr(bench, "ip_fit", broken_ip_fit)
    rows = run_experiment(cfg).rows
    assert len(rows) == len(expected) == 2 * 7
    for row, want in zip(rows, expected):
        if row.method == "IP":
            want = RunRecord(
                method="IP",
                repetition=want.repetition,
                seed=want.seed,
                dataset_sha256=want.dataset_sha256,
                wall_clock_s=row.wall_clock_s,
                error="RuntimeError: factor lost",
            )
        assert dataclasses.replace(row, wall_clock_s=want.wall_clock_s) == want


def test_pvalue_of_a_constant_difference_is_none():
    # Every paired difference is 1.0: zero variance, so no t statistic.
    assert bench._pvalue({0: 1.0, 1: 2.0}, {0: 0.0, 1: 1.0}) is None


def test_a_failed_write_names_the_output_directory(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"  # below a regular file, so it cannot be made
    table = run_experiment(dataclasses.replace(TINY, repetitions=2, methods=("IP",)))
    with pytest.raises(OSError, match=f"^failed writing benchmark outputs under {re.escape(str(out))}: "):
        emit_outputs(table, summarize(table), out)
