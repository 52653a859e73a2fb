"""Command-line interface: ``python -m repro.experiments`` / ``hieras-experiments``.

Subcommands
-----------
``list``
    Show every registered experiment with its paper claim.
``run <id> [<id> ...]`` (or ``run all``)
    Run experiments and print their reports; ``--seed`` changes the
    master seed.  Each experiment has one scale: the paper's for its
    tables and figures.
``sweep``
    Evaluate a custom parameter grid (models × sizes × landmarks ×
    depths × seeds) and print/write tidy per-cell rows.
``report``
    Run every experiment and write a single markdown report (the
    machinery behind refreshing EXPERIMENTS.md's recorded numbers).
``bench <id>``
    Run one *bench* — an experiment whose structured data is also a
    committed ``BENCH_*.json`` (``list`` marks them) — print its report
    and write the document (``--out``, default: the committed file's
    name in the current directory).  Exits 1 on any ``[DIVERGES]``
    claim.  ``--check`` instead regenerates at the committed
    document's own ``seed`` and exits 1 if ``config`` or
    ``metrics`` drifted from it (``phases`` — wall times, RSS — never
    count); it then writes only where ``--out`` says.

``run`` additionally drops one ``metrics_<id>.json`` artifact per
experiment (structured result data; directory overridable via
``REPRO_ARTIFACT_DIR``) so CI can collect machine-readable outputs
alongside the printed reports.  A negative seed, or fewer than one
request per ``sweep`` cell, is a usage error (exit 2) before anything
runs.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.experiments.bench import artifact_path, drift, read_committed, timed, write_doc
from repro.experiments.figures import EXPERIMENTS, Experiment, ExperimentResult, get_experiment
from repro.util.validation import require

__all__ = ["build_parser", "main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.id.ljust(width)}  {exp.title}")
        print(f"{' ' * width}  paper: {exp.paper_claim}")
        if exp.document:
            print(f"{' ' * width}  bench: {exp.document}")
    return 0


def _json_default(obj: object) -> object:
    """JSON fallback for numpy scalars/arrays inside result data."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(obj)


def _write_metrics_artifact(result, *, seed: int, wall_s: float) -> None:
    """Drop one machine-readable artifact per finished experiment.

    Written to ``REPRO_ARTIFACT_DIR`` (default: cwd, gitignored) so CI
    can upload the structured numbers behind each printed report.
    """
    import json

    doc = {
        "experiment": result.experiment_id,
        "title": result.title,
        "seed": seed,
        "wall_s": wall_s,
        "diverged": "[DIVERGES]" in result.text,
        "data": result.data,
    }
    target = artifact_path(f"metrics_{result.experiment_id}.json")
    target.write_text(json.dumps(doc, indent=2, default=_json_default), encoding="utf-8")
    print(f"(wrote {target})")


def _timed_run(exp: Experiment, seed: int) -> tuple[ExperimentResult, float]:
    """Run one experiment; returns its result and the wall seconds it took."""
    clock: dict[str, float] = {}
    with timed(clock):
        result = exp.run(seed)
    return result, clock["wall_ms"] / 1000.0


def _run_and_print(exp: Experiment, seed: int) -> tuple[ExperimentResult, float]:
    """What ``run`` and ``bench`` both show for one experiment."""
    print("=" * 72)
    print(f"{exp.id}: {exp.title}  [seed {seed}]")
    print(f"paper claim: {exp.paper_claim}")
    print("-" * 72)
    result, wall_s = _timed_run(exp, seed)
    print(result.text)
    print(f"({wall_s:.1f}s)")
    return result, wall_s


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    failures = 0
    for experiment_id in ids:
        result, wall_s = _run_and_print(get_experiment(experiment_id), args.seed)
        if "[DIVERGES]" in result.text:
            failures += 1
        _write_metrics_artifact(result, seed=args.seed, wall_s=wall_s)
        print()
    if failures:
        print(f"{failures} experiment(s) diverged from the paper's claims")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    exp = EXPERIMENTS.get(args.id)
    require(
        exp is not None and exp.document is not None,
        f"{args.id!r} is not a bench (no committed document); benches: "
        f"{[e.id for e in EXPERIMENTS.values() if e.document]}",
    )
    seed, out = (42 if args.seed is None else args.seed), args.out
    committed = None
    if args.check:
        committed = read_committed(exp.document, exp.load().SCHEMA)
        seed = committed["config"]["seed"]
    elif out is None:
        out = exp.document
    result, _ = _run_and_print(exp, seed)
    if out is not None:
        print(f"wrote {write_doc(result.data, out)}")
    status = 1 if "[DIVERGES]" in result.text else 0
    if committed is not None:
        where = drift(result.data, committed)
        if where is None:
            print(f"config + metrics equal the committed {exp.document}")
        else:
            print(f"DRIFT from the committed {exp.document} at {where}")
            status = 1
    return status


def _int_list(text: str) -> tuple[int, ...]:
    """A ``--sizes``-style comma list; argparse names the flag when it is malformed."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An integer argument below ``low`` is a usage error, caught before anything runs."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


_seed = _int_at_least(0)


def _seed_list(text: str) -> tuple[int, ...]:
    """``--seeds``: a comma list of non-negative integers."""
    return tuple(_seed(v) for v in text.split(","))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.sweep import SweepSpec, run_sweep, write_csv

    spec = SweepSpec(
        models=tuple(args.models.split(",")),
        sizes=args.sizes,
        landmarks=args.landmarks,
        depths=args.depths,
        seeds=args.seeds,
        n_requests=args.requests,
    )
    print(f"sweeping {spec.n_cells} cells...")
    rows = run_sweep(spec, progress=print)
    if not rows:
        print("no valid cells")
        return 1
    print()
    print(format_table(rows))
    if args.out:
        n = write_csv(rows, args.out)
        print(f"\nwrote {n} rows to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    lines = [
        "# HIERAS reproduction report",
        "",
        f"Master seed: {args.seed}.",
        "",
    ]
    failures = 0
    for exp in EXPERIMENTS.values():
        print(f"running {exp.id}...", flush=True)
        result, elapsed = _timed_run(exp, args.seed)
        if "[DIVERGES]" in result.text:
            failures += 1
        lines += [
            f"## {exp.id}: {exp.title}",
            "",
            f"Paper claim: {exp.paper_claim}",
            "",
            "```",
            result.text,
            "```",
            "",
            f"_({elapsed:.1f}s)_",
            "",
        ]
    out = Path(args.out)
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines, {failures} divergence(s))")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (``tests/test_readme.py`` holds the docs to it)."""
    parser = argparse.ArgumentParser(
        prog="hieras-experiments",
        description="Reproduce the HIERAS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments").set_defaults(func=_cmd_list)
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run.add_argument("--seed", type=_seed, default=42, help="master seed (default 42)")
    run.set_defaults(func=_cmd_run)
    sweep = sub.add_parser("sweep", help="evaluate a custom parameter grid")
    sweep.add_argument("--models", default="ts", help="comma list: ts,inet,brite")
    sweep.add_argument("--sizes", type=_int_list, default="1000", help="comma list of peer counts")
    sweep.add_argument("--landmarks", type=_int_list, default="4", help="comma list of landmark counts")
    sweep.add_argument("--depths", type=_int_list, default="2", help="comma list of depths (2-4)")
    sweep.add_argument("--seeds", type=_seed_list, default="42", help="comma list of seeds")
    sweep.add_argument("--requests", type=_int_at_least(1), default=10_000, help="requests per cell")
    sweep.add_argument("--out", default=None, help="write rows to this CSV path")
    sweep.set_defaults(func=_cmd_sweep)
    report = sub.add_parser("report", help="run everything, write a markdown report")
    report.add_argument("--out", default="report.md", help="output path (default report.md)")
    report.add_argument("--seed", type=_seed, default=42, help="master seed (default 42)")
    report.set_defaults(func=_cmd_report)
    bench = sub.add_parser(
        "bench", help="run one bench, print its report, write its BENCH_*.json document"
    )
    bench.add_argument("id", help="bench id ('list' marks them)")
    bench.add_argument(
        "--out", default=None,
        help="output path (default: the committed document's name; nothing under --check)",
    )
    # ``--seed`` defaults to None so that an explicit ``--seed 42`` still
    # conflicts with ``--check``, which takes the committed document's seed.
    seeding = bench.add_mutually_exclusive_group()
    seeding.add_argument("--seed", type=_seed, default=None, help="master seed (default 42)")
    seeding.add_argument(
        "--check", action="store_true",
        help="regenerate at the committed document's own seed; "
        "exit 1 if config or metrics drifted from it",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
