"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  Runs one workload in this process and prints
the result as the last line of standard output (see BENCHMARK.json)."""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread, set before numpy loads its BLAS: the benchmark is a
# single process and must not be timed against a thread pool's mood.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
