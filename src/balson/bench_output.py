"""CSV and SVG emission for benchmark result tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model import predict
from .svg import box_plot, line_plot

# The quality metrics, each a RunRecord field: every one gets a mean in
# summary.csv, a p-value matrix pvalues_<metric>.csv and a box plot.
QUALITY = ("mse", "sparsity")


@dataclass(frozen=True, kw_only=True)
class RunRecord:
    """One (method, repetition) outcome; failures carry the error message.

    The outcome fields are None for failures, and the sampler diagnostics,
    round 0's ``proposals`` and the smallest ESS over rounds ``ess_min``
    among them, are None for baselines too.
    """

    method: str
    repetition: int
    seed: int
    dataset_sha256: str
    mse: float | None = None
    sparsity: float | None = None
    acceptance_rate: float | None = None
    proposals: int | None = None
    ess_final: float | None = None
    ess_min: float | None = None
    alpha0_final: float | None = None
    wall_clock_s: float
    error: str | None = None
    theta: tuple[float, ...] | None = None


# runs.csv holds every field but the coefficients, in field order.
RUNS_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name != "theta")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(table, summary, out: Path, svg: bool) -> list[Path]:
    paths = []

    runs = out / "runs.csv"
    _write_csv(
        runs,
        RUNS_COLUMNS,
        [[_cell(getattr(row, col)) for col in RUNS_COLUMNS] for row in table.rows],
    )
    paths.append(runs)

    summary_path = out / "summary.csv"
    _write_csv(
        summary_path,
        ("method", *next(iter(summary.method_means.values()))),
        [
            [method, *(_cell(value) for value in stats.values())]
            for method, stats in summary.method_means.items()
        ],
    )
    paths.append(summary_path)

    for metric, matrix in summary.pvalues.items():
        # Every row holds the same baselines, in the order summarize tests them.
        baselines = list(next(iter(matrix.values()), {}))
        path = out / f"pvalues_{metric}.csv"
        _write_csv(
            path,
            ["method", *baselines],
            [
                [variant, *("degenerate" if row[b] is None else _cell(row[b]) for b in baselines)]
                for variant, row in matrix.items()
            ],
        )
        paths.append(path)

    paths.extend(_write_curves(table, out, svg))
    return paths


def _first_rep_thetas(table):
    first = min(row.repetition for row in table.rows)
    thetas = {}
    for row in table.rows:
        if row.repetition == first and row.theta is not None:
            thetas[row.method] = np.asarray(row.theta)
    return thetas


def _write_curves(table, out: Path, svg: bool) -> list[Path]:
    cfg = table.config
    test_x = np.linspace(0.0, 1.0, cfg.n_test)
    truth = predict(np.asarray(cfg.true_theta), test_x)
    thetas = _first_rep_thetas(table)
    fitted = {m: predict(theta, test_x) for m, theta in thetas.items()}

    curves = out / "curves.csv"
    header = ["x", "y_true", *cfg.methods]
    rows = []
    for i, x in enumerate(test_x):
        row = [repr(float(x)), repr(float(truth[i]))]
        for method in cfg.methods:
            row.append(repr(float(fitted[method][i])) if method in fitted else "")
        rows.append(row)
    _write_csv(curves, header, rows)
    paths = [curves]

    if svg:
        series = [("actual", test_x, truth)]
        series.extend((m, test_x, fitted[m]) for m in cfg.methods if m in fitted)
        curves_svg = out / "curves.svg"
        line_plot(curves_svg, series, "Actual and fitted curves")
        paths.append(curves_svg)
        for metric in QUALITY:
            groups = []
            for method in cfg.methods:
                values = [
                    getattr(r, metric)
                    for r in table.rows
                    if r.method == method and r.error is None
                ]
                if values:
                    groups.append((method, values))
            if groups:
                path = out / f"boxplot_{metric}.svg"
                box_plot(path, groups, f"Distribution of {metric.upper() if metric == 'mse' else metric}")
                paths.append(path)
    return paths
