"""Benchmark of balson: per-method fit latency and quality on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes with per-layer timing wrappers installed and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every output check holds, 1 when one fails and 2 when the program cannot be
loaded. README.md describes the workloads and the metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy is first imported: with the default two,
# large fits contend with each other and with the host's other load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def load_program() -> None:
    """Import balson from this checkout's src/, never from anywhere else."""
    if not (SRC / "balson" / "__init__.py").is_file():
        print(f"error: no balson sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import balson

    if Path(balson.__file__).resolve().parent != SRC / "balson":
        print(f"error: balson was imported from {balson.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "large_n", "signed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import harness
    import workloads

    import_s = time.perf_counter() - _STARTED
    threads = harness.blas_threads()
    calib_start = harness.calibrate()
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(cls.default_size, OUT_DIR / args.workload)
    absent = []
    if args.trace:
        passes, metrics, problems, absent = harness.traced(workload, args.seconds)
    else:
        passes, metrics, problems = harness.untraced(workload, args.seconds, import_s)
    calib_end = harness.calibrate()
    calib_ms = statistics.median(calib_start + calib_end)
    if args.trace:
        metrics["host.calib_ms"] = {"value": calib_ms, "unit": "ms"}
    attempted, failed = harness.counts(passes)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print(f"blas threads: {threads if threads is not None else 'unknown'}")
    print(
        f"host.calib_ms {calib_ms:.3f} (start {statistics.median(calib_start):.3f}, "
        f"end {statistics.median(calib_end):.3f})"
    )
    for method, q in harness.quality(passes[0]).items():
        mse = "-" if q["mse"] is None else f"{q['mse']:.6g}"
        print(f"quality {method:>6s}: mse {mse}  failed fits per pass {q['failed']}")
    for name, metric in metrics.items():
        print(f"{name:>42s} {metric['value']:.6g} {metric['unit']}")
    if absent:
        print(f"absent (hook target gone): {', '.join(absent)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
