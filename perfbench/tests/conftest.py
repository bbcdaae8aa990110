"""Put the benchmark's modules and the balson sources on the import path."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
