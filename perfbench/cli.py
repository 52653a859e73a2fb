"""``python -m perfbench run|compare`` — the benchmark's front door.

``run`` executes each workload in its own subprocess (so peak RSS is
per workload), single-threaded, prints every metric by name with its
unit, verifies outputs, and writes one result file under
``perfbench/out/``.  ``run --trace`` is the separate traced run that
yields the per-layer metrics.  ``compare`` judges two sets of result
files (see :mod:`perfbench.compare`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from perfbench import compare as compare_mod
from perfbench.spec import ALL

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_suite(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(ALL)
    out_dir = Path(args.out) if args.out else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    docs: dict[str, Any] = {}
    wall_s: dict[str, float] = {}
    status = 0
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name in workloads:
            doc_path = Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)), "--doc", str(doc_path), "--out", str(out_dir),
            ] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=False)
            wall_s[name] = time.perf_counter() - started
            # Everything but the machine-readable last line.
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                status = 1
                print(f"{name}: FAILED (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            if doc_path.is_file():
                docs[name] = json.loads(doc_path.read_text(encoding="utf-8"))
    if not docs:
        return 1
    first = next(iter(docs.values()))
    calib = {
        key: statistics.median(doc["host"][key] for doc in docs.values())
        for key in ("host.calib_searchsorted_ns", "host.calib_gather_ns")
    }
    shas = {name: doc["sim_sha256"] for name, doc in docs.items()}
    result = {
        "schema": compare_mod.RESULT_SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "commit": git_commit(),
        "host": {**first["host"], **calib},
        "wall_s": wall_s,
        "sim_sha256": hashlib.sha256(json.dumps(shas, sort_keys=True).encode()).hexdigest(),
        "workloads": docs,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"result-seed{args.seed}-trace{int(args.trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {path}  (sim sha256 {result['sim_sha256'][:16]}, "
          f"suite wall {sum(wall_s.values()):.0f} s)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads and write a result file")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=12.0, help="timed seconds per workload")
    run.add_argument("--trace", action="store_true", help="the traced run: per-layer metrics")
    run.add_argument("--smoke", action="store_true", help="tiny sizes (N=512); for the tests")
    run.add_argument("--workload", choices=ALL, help="run a single workload")
    run.add_argument("--out", help="directory for the result file (default perfbench/out)")
    cmp_ = sub.add_parser("compare", help="judge result set B against baseline set A")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_suite(args)
    return compare_mod.main(args.a, args.b)
