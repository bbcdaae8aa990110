"""CLI exit codes: 1 usage error, 2 numerical failure, 3 I/O failure."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from balson import cli
from balson.bench import config_from_mapping
from balson.bench_output import QUALITY
from balson.exceptions import BalsonError
from conftest import bench_outputs


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    xs = np.linspace(0.0, 1.0, 20)
    path.write_text("x,y\n" + "".join(f"{x},{0.3 + 0.5 * x}\n" for x in xs))
    return path


def fit_args(csv_path, tmp_path, *extra, method="is"):
    return [
        "fit",
        "--input", str(csv_path),
        "--order", "2",
        "--method", method,
        "--samples", "200",
        "--output", str(tmp_path / "report.json"),
        *extra,
    ]


@pytest.mark.parametrize("method", ["rs", "is", "rsirs", "isirs"])
def test_success(csv_path, tmp_path, method):
    assert cli.main(fit_args(csv_path, tmp_path, "--rounds", "2", method=method)) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    diagnostics = report["diagnostics"]
    assert len(report["theta_star"]) == 2
    assert diagnostics["method"] == method.upper()
    assert len(diagnostics["ess_per_round"]) == (3 if method.endswith("irs") else 1)
    if method.startswith("is"):
        assert diagnostics["proposals"] == 200  # IS draws L = 200
    assert set(diagnostics) == {
        "method",
        "prior_alpha",
        "acceptance_rate",
        "proposals",
        "ess_per_round",
        "alpha0_trajectory",
        "mean_fallback",
        "wall_clock_s",
    }


@pytest.mark.parametrize(
    "extra",
    [
        ("--bogus",),  # argparse rejects it
        ("--prior", "1,2,3"),  # wrong prior length
        ("--prior", "1,x"),  # not a number
        ("--budget", "-1"),  # ModelSpec raises ValueError
    ],
)
def test_usage_error(csv_path, tmp_path, capsys, extra):
    assert cli.main(fit_args(csv_path, tmp_path, *extra)) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [BalsonError("no acceptances"), np.linalg.LinAlgError("Singular matrix")]
)
def test_numerical_failure(csv_path, tmp_path, capsys, monkeypatch, error):
    def failing_solve(data, cfg):
        raise error

    monkeypatch.setattr(cli, "solve", failing_solve)
    assert cli.main(fit_args(csv_path, tmp_path)) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0,1,7", "0", "0,abc"])
def test_row_without_two_fields(tmp_path, capsys, row):
    path = tmp_path / "data.csv"
    path.write_text(f"x,y\n0.5,1\n{row}\n")
    assert cli.main(fit_args(path, tmp_path)) == cli.EXIT_USAGE
    assert f"usage error: {path}:3: bad row" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty input file"),
        ("a,b\n0,1\n", "{path}: expected header 'x,y', got ['a', 'b']"),
    ],
)
def test_csv_without_the_x_y_header(tmp_path, capsys, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert cli.main(fit_args(path, tmp_path)) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message.format(path=path)}\n"
    assert not (tmp_path / "report.json").exists()


def test_blank_csv_lines_are_skipped(csv_path, tmp_path):
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(csv_path.read_text().replace("\n", "\n\n"))
    reports = []
    for path in (csv_path, spaced):
        assert cli.main(fit_args(path, tmp_path)) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        del report["diagnostics"]["wall_clock_s"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("budget", ["-1", "0", "inf", "nan"])
def test_fit_budget_that_is_not_positive_and_finite(csv_path, tmp_path, capsys, budget):
    # The message names the option, not ModelSpec's field "scale".
    assert cli.main(fit_args(csv_path, tmp_path, "--budget", budget)) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: budget must be a positive finite number\n"
    assert not (tmp_path / "report.json").exists()


def test_io_failure(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert cli.main(fit_args(missing, tmp_path)) == cli.EXIT_IO
    assert "io failure" in capsys.readouterr().err


TINY_BENCH = {
    "repetitions": 2,
    "n_test": 50,
    "sampler": {"sample_count": 200, "resample_rounds": 2},
    "baselines": {"gibbs": {"iterations": 60, "burn_in": 20}},
}


def test_bench_writes_what_it_reports(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(TINY_BENCH))
    out = tmp_path / "out"
    assert cli.main(["bench", "--config", str(config), "--out-dir", str(out), "--svg"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    wrote = [Path(line.removeprefix("wrote ")) for line in lines if line.startswith("wrote ")]
    assert len(wrote) == 9
    assert all(path.exists() for path in wrote)
    # A run's own config echo is a valid config.
    echo = str(out / "config.json")
    assert cli.main(["bench", "--config", echo, "--out-dir", str(tmp_path / "again")]) == cli.EXIT_OK


def test_bench_workers_option_changes_no_output(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(TINY_BENCH))
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers_{workers}"
        argv = ["bench", "--config", str(config), "--out-dir", str(out), "--svg", "--workers", workers]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append(bench_outputs(out))
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]


def test_bench_with_a_method_that_fails_every_row(tmp_path, capsys):
    # 100 proposals cannot yield 100 acceptances, so both RS rows fail.
    raw = {
        "methods": ["IP", "BALSON-RS"],
        "repetitions": 2,
        "n_test": 50,
        "sampler": {"sample_count": 100, "max_proposals": 100},
    }
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["bench", "--config", str(config), "--out-dir", str(out), "--svg"]) == cli.EXIT_OK
    assert "       BALSON-RS  no successful repetitions" in capsys.readouterr().out.splitlines()
    assert (out / "summary.csv").read_text().splitlines()[-1] == "BALSON-RS,,,0"
    for q in QUALITY:
        rows = (out / f"pvalues_{q}.csv").read_text().splitlines()
        assert rows == ["method,IP", "BALSON-RS,degenerate"]
    with (out / "curves.csv").open(newline="") as handle:
        assert {row["BALSON-RS"] for row in csv.DictReader(handle)} == {""}
    assert all((out / f"boxplot_{q}.svg").exists() for q in QUALITY)


def bench_usage_error(tmp_path, capsys, raw, pattern, *extra, out_dir=True):
    """Run ``balson bench`` on the config ``raw`` (JSON text or data) with the
    ``extra`` flags, and ``--out-dir`` unless told not to. Asserts exit 1, a
    stderr that ``pattern`` matches in full, and that no output was written."""
    config = tmp_path / "bench.json"
    config.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    out = tmp_path / "out"
    argv = ["bench", "--config", str(config), *extra] + (["--out-dir", str(out)] if out_dir else [])
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert re.fullmatch(pattern, err), err
    assert not out.exists()


def exactly(message):
    """The pattern of the one usage-error line ``message``."""
    return re.escape(f"usage error: {message}\n")


def test_bench_invalid_json(tmp_path, capsys):
    config = tmp_path / "bench.json"
    bench_usage_error(tmp_path, capsys, "{", re.escape(f"usage error: {config}: invalid JSON: ") + ".*\n")


@pytest.mark.parametrize(
    "raw, extra, message",
    [
        ({"n_train": 4}, [], "n_train must be at least the coefficient count (and >= 2)"),
        ({"n_test": 1}, [], "n_test must be >= 2"),
        ({"repetitions": 0}, [], "repetitions must be >= 1"),
        ({"methods": ["IP", "BALSON-XS"]}, [], "unknown methods: ['BALSON-XS']"),
        ({"methods": ["IP", "IP"]}, [], "methods must not repeat"),
        ({"workers": 0}, [], "workers must be >= 1"),
        ({}, ["--workers", "0"], "workers must be >= 1"),
        ({"out_dir": "x"}, [], "unknown config keys: ['out_dir']"),
        ({"baselines": {"gibbs": {"seed": 3}}}, [], "unknown baselines.gibbs config keys: ['seed']"),
        ({"n_train": None}, [], "n_train must be an integer"),
        ({"sampler": {"sample_count": None}}, [], "sampler config: sample_count must be an integer"),
    ],
)
def test_bench_config_out_of_range(tmp_path, capsys, raw, extra, message):
    bench_usage_error(tmp_path, capsys, raw, exactly(message), *extra)


def test_bench_without_output_directory(tmp_path, capsys):
    message = "the following arguments are required: --out-dir"
    bench_usage_error(tmp_path, capsys, TINY_BENCH, exactly(message), out_dir=False)


@pytest.mark.parametrize(
    "raw, key",
    [({"sampler": {"sample_cont": 500}}, "sample_cont"), ({"baselines": {"ip": {"mu0": 2.0}}}, "mu0")],
)
def test_bench_misspelt_nested_key(tmp_path, capsys, raw, key):
    bench_usage_error(tmp_path, capsys, raw, f"usage error:.*{re.escape(repr(key))}.*\n")


@pytest.mark.parametrize(
    "raw, extra",
    [
        ({"sampler": 5}, []),
        ({"sampler": None}, []),
        ({"baselines": 5}, []),
        ({"baselines": {"ip": 5}}, []),
        ({"baselines": {"gibbs": [1]}}, []),
        ([], []),
        ([], ["--workers", "2"]),
    ],
)
def test_bench_section_not_an_object(tmp_path, capsys, raw, extra):
    bench_usage_error(tmp_path, capsys, raw, "usage error:.*must be a JSON object.*\n", *extra)


@pytest.mark.parametrize(
    "raw",
    [
        {"true_theta": 5},
        {"n_train": "x"},
        {"sampler": {"sample_count": "x"}},
        {"methods": ["BALSON-RS", ["x"]]},
        {"baselines": {"gibbs": {"iterations": "x"}}},
        {"repetitions": None},
        {"budget": float("inf")},  # JSON Infinity: a number, but no finite budget
    ],
)
def test_bench_value_of_the_wrong_type(tmp_path, capsys, raw):
    bench_usage_error(tmp_path, capsys, raw, "usage error:.*\n")


@pytest.mark.parametrize(
    "raw",
    [
        {"true_theta": 5},
        {"true_theta": "abc"},
        {"true_theta": [0.1, None]},
        {"methods": 5},
        {"methods": "LASSO"},
    ],
)
def test_bench_top_level_type_error_names_the_field(tmp_path, capsys, raw):
    bench_usage_error(tmp_path, capsys, raw, re.escape(f"usage error: {next(iter(raw))} must be") + ".*\n")


@pytest.mark.parametrize("budget", [-1.0, 0.0, float("inf"), float("nan"), "1", None])
def test_bench_budget_that_is_not_positive_and_finite(tmp_path, capsys, budget):
    # The message names the config key, not ModelSpec's field "scale".
    bench_usage_error(tmp_path, capsys, {"budget": budget}, "usage error: budget must be(?!.*scale).*\n")


@pytest.mark.parametrize(
    "raw",
    [
        {"repetitions": 2.0},
        {"n_train": 50.0},
        {"sampler": {"sample_count": 200.0, "resample_rounds": 2}},
        {"baselines": {"gibbs": {"iterations": 60.0, "burn_in": 20.0}}},
    ],
)
def test_bench_integral_float_counts(tmp_path, raw):
    # JSON numbers such as 2.0 are integers in a count field.
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({**TINY_BENCH, **raw}))
    assert cli.main(["bench", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "raw",
    [
        {"repetitions": 2.5},
        {"n_train": 50.5},
        {"n_test": float("inf")},
        {"base_seed": float("nan")},
        {"sampler": {"sample_count": 200.5}},
        {"sampler": {"max_proposals": 1e6 + 0.5}},
        {"baselines": {"gibbs": {"burn_in": 20.5}}},
    ],
)
def test_bench_count_that_is_not_an_integer(tmp_path, capsys, raw):
    bench_usage_error(tmp_path, capsys, raw, "usage error:.*\n")


@pytest.mark.parametrize(
    "raw, name",
    [
        ({"base_seed": -1}, "base_seed"),
        ({"base_seed": 2**64}, "base_seed"),
        ({"sampler": {"seed": -1}}, "seed"),
    ],
)
def test_bench_seed_outside_64_bits(tmp_path, capsys, raw, name):
    # A nested section's message starts with its path.
    where = "sampler config: " if "sampler" in raw else ""
    bench_usage_error(tmp_path, capsys, raw, exactly(f"{where}{name} must fit in 64 bits"))


def test_bench_max_proposals_from_a_json_float():
    cfg = config_from_mapping(json.loads('{"sampler": {"max_proposals": 1e6}}'))
    assert type(cfg.sampler.max_proposals) is int and cfg.sampler.max_proposals == 1_000_000


def test_sample_diag(capsys):
    assert cli.main(["sample-diag", "--order", "3", "--samples", "1000"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["0", "1", "2"]


def test_sample_diag_too_few_samples(capsys):
    # The rule and message of SamplerConfig, as for fit --samples 50.
    assert cli.main(["sample-diag", "--order", "3", "--samples", "50"]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "usage error: sample_count must be at least 100\n")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_diag_seed_outside_64_bits(capsys, seed):
    # The rule every seed field keeps, not numpy's own message (or none, at 2^64).
    assert cli.main(["sample-diag", "--order", "3", "--seed", str(seed)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "usage error: seed must fit in 64 bits\n")


def test_sample_diag_recovers_the_prior(capsys):
    argv = ["sample-diag", "--order", "3", "--prior", "2,3,4", "--samples", "100000"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    alpha_hat = np.array([float(row.split()[-1]) for row in rows])
    np.testing.assert_allclose(alpha_hat, [2.0, 3.0, 4.0], rtol=0.05)
