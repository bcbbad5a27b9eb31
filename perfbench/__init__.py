"""Benchmark of the csdn package: three workloads, correctness checks and a
per-layer trace. Run it as ``python3 perfbench/run.py --workload NAME``
from the root of a source tree; see ``perfbench/README.md``."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
