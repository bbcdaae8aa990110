"""CLI exit codes: 1 usage error, 2 numerical failure, 3 I/O failure."""

import json

import numpy as np
import pytest

from balson import cli
from balson.exceptions import BalsonError


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    xs = np.linspace(0.0, 1.0, 20)
    path.write_text("x,y\n" + "".join(f"{x},{0.3 + 0.5 * x}\n" for x in xs))
    return path


def fit_args(csv_path, tmp_path, *extra):
    return [
        "fit",
        "--input", str(csv_path),
        "--order", "2",
        "--method", "is",
        "--samples", "200",
        "--output", str(tmp_path / "report.json"),
        *extra,
    ]


def test_success(csv_path, tmp_path):
    assert cli.main(fit_args(csv_path, tmp_path)) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["theta_star"]) == 2
    assert report["diagnostics"]["proposals"] == 200  # IS draws L = 200


@pytest.mark.parametrize(
    "extra",
    [
        ("--bogus",),  # argparse rejects it
        ("--prior", "1,2,3"),  # wrong prior length
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


def test_io_failure(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert cli.main(fit_args(missing, tmp_path)) == cli.EXIT_IO
    assert "io failure" in capsys.readouterr().err
