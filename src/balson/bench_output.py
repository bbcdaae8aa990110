"""CSV and SVG emission for benchmark result tables."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .model import predict
from .svg import box_plot, line_plot

RUNS_COLUMNS = (
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
)


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
        ("method", "mean_mse", "mean_sparsity", "n_ok"),
        [
            [
                method,
                _cell(stats["mean_mse"]),
                _cell(stats["mean_sparsity"]),
                stats["n_ok"],
            ]
            for method, stats in summary.method_means.items()
        ],
    )
    paths.append(summary_path)

    for name, matrix in (
        ("pvalues_mse.csv", summary.pvalues_mse),
        ("pvalues_sparsity.csv", summary.pvalues_sparsity),
    ):
        # Every row holds the same baselines, in the order summarize tests them.
        baselines = list(next(iter(matrix.values()), {}))
        path = out / name
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
        for metric in ("mse", "sparsity"):
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
