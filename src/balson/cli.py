"""Command-line surface: single fits, the benchmark harness, sampler diagnostics.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .bench import config_from_mapping, emit_outputs, run_experiment, summarize
from .bench_output import QUALITY
from .dirichlet import DirichletParams, match_moments_per_dim, moments, sample_batch
from .exceptions import BalsonError
from .model import Dataset, ModelSpec
from .samplers import DEFAULT_RESAMPLE_ROUNDS, DEFAULT_SAMPLE_COUNT, SamplerConfig
from .solver import METHODS, BalsonConfig, FitReport, solve, uniform_prior

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="balson", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one dataset and write a JSON report")
    fit.add_argument("--input", required=True, help="CSV with header x,y")
    fit.add_argument("--order", required=True, type=int)
    fit.add_argument("--budget", type=float, default=1.0)
    fit.add_argument("--method", required=True, choices=[m.lower() for m in METHODS])
    fit.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT)
    fit.add_argument("--rounds", type=int, default=DEFAULT_RESAMPLE_ROUNDS)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--prior", default="uniform", help="comma-separated list or 'uniform'")
    fit.add_argument("--output", required=True, help="JSON report path")

    bench = sub.add_parser("bench", help="run the multi-method benchmark")
    bench.add_argument("--config", required=True, help="JSON experiment config")
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--svg", action="store_true")
    bench.add_argument("--workers", type=int, default=None)

    diag = sub.add_parser("sample-diag", help="print prior-sampling moment diagnostics")
    diag.add_argument("--order", required=True, type=int)
    diag.add_argument("--prior", default="uniform")
    diag.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT)
    diag.add_argument("--seed", type=int, default=0)
    return parser


def _parse_prior(text: str, order: int) -> DirichletParams:
    if text.strip() == "uniform":
        return uniform_prior(order)
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise ValueError(f"--prior must be 'uniform' or a comma list: {err}") from err
    if len(values) != order:
        raise ValueError(f"--prior has {len(values)} entries but --order is {order}")
    return DirichletParams(np.asarray(values))


def _read_xy_csv(path: str) -> Dataset:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty input file") from None
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise ValueError(f"{path}: expected header 'x,y', got {header}")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(
                    f"{path}:{lineno}: bad row {row}: expected 2 fields, got {len(row)}"
                )
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: bad row {row}: {err}") from err
    return Dataset(np.asarray(xs), np.asarray(ys))


def _report_payload(report: FitReport, args) -> dict:
    return {
        "theta_star": [float(v) for v in report.theta_star.theta],
        "alpha_star": [float(v) for v in report.alpha_star.alpha],
        "omega_star": [float(v) for v in report.omega_star.values],
        "diagnostics": dataclasses.asdict(report.diagnostics),
        "config": {
            "order": args.order,
            "budget": args.budget,
            "method": args.method,
            "samples": args.samples,
            "rounds": args.rounds,
            "prior": args.prior,
        },
        "seed": args.seed,
    }


def _cmd_fit(args) -> int:
    data = _read_xy_csv(args.input)
    prior = _parse_prior(args.prior, args.order)
    cfg = BalsonConfig(
        method=args.method.upper(),
        prior=prior,
        spec=ModelSpec(args.order, args.budget),
        sampler=SamplerConfig(
            sample_count=args.samples, resample_rounds=args.rounds, seed=args.seed
        ),
    )
    report = solve(data, cfg)
    with open(args.output, "w") as handle:
        json.dump(_report_payload(report, args), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.config) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"{args.config}: invalid JSON: {err}") from err
    cfg = config_from_mapping(raw)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    table = run_experiment(cfg)
    summary = summarize(table)
    manifest = emit_outputs(table, summary, args.out_dir, svg=args.svg)
    for method, stats in summary.method_means.items():
        if stats["n_ok"] == 0:
            print(f"{method:>16s}  no successful repetitions")
            continue
        means = "".join(f"mean_{q}={stats[f'mean_{q}']:.6f}  " for q in QUALITY)
        print(f"{method:>16s}  {means}n_ok={stats['n_ok']}")
    for path in manifest:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sample_diag(args) -> int:
    prior = _parse_prior(args.prior, args.order)
    cfg = SamplerConfig(sample_count=args.samples, seed=args.seed)
    draws = sample_batch(prior, np.random.default_rng([cfg.seed]), cfg.sample_count)
    mean_hat = draws.mean(axis=0)
    var_hat = draws.var(axis=0)
    mean_true, var_true = moments(prior)
    recovered = match_moments_per_dim(mean_hat, var_hat)
    print(f"prior alpha: {[float(a) for a in prior.alpha]}  draws: {args.samples}")
    print(f"{'dim':>4s} {'mean':>12s} {'mean_hat':>12s} {'var':>12s} {'var_hat':>12s} {'alpha_hat':>12s}")
    for i in range(args.order):
        print(
            f"{i:>4d} {mean_true[i]:>12.6f} {mean_hat[i]:>12.6f} "
            f"{var_true[i]:>12.6f} {var_hat[i]:>12.6f} {recovered.alpha[i]:>12.6f}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_sample_diag(args)
    except (BalsonError, np.linalg.LinAlgError) as err:
        # LinAlgError subclasses ValueError, so it is caught first.
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"io failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
