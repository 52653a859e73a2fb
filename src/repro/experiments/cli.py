"""Command-line interface: ``python -m repro.experiments`` / ``hieras-experiments``.

Subcommands
-----------
``list``
    Show every registered experiment with its paper claim.
``run <id> [<id> ...]`` (or ``run all``)
    Run experiments and print their reports.  ``--full`` (or
    ``REPRO_FULL=1``) selects paper-scale parameters; ``--seed`` changes
    the master seed.
``sweep``
    Evaluate a custom parameter grid (models × sizes × landmarks ×
    depths × seeds) and print/write tidy per-cell rows.
``report``
    Run every experiment and write a single markdown report (the
    machinery behind refreshing EXPERIMENTS.md's recorded numbers).
``perf-baseline``
    Run the perf-baseline pipeline (``repro.experiments.baseline``) and
    write ``BENCH_baseline.json``: wall time per phase plus
    seed-deterministic hop/latency metrics for both stacks.
``cache-bench``
    Run the cache-effect sweep (``repro.experiments.cache_exp``) and
    write ``BENCH_cache.json``: Zipf exponent × cache capacity × churn
    cells with hop/latency reductions and owner-load concentration.
``batch-bench``
    Benchmark the vectorized batch routing engine against the scalar
    loop (``repro.experiments.batchbench``) and write
    ``BENCH_batchroute.json``: lookups/sec and speedup per (stack, N),
    the traced-batch rate and its overhead over the untraced batch,
    plus deterministic engines-agree equality bits.
``durability-bench``
    Run the durability-under-churn sweep (``repro.experiments.durability``)
    and write ``BENCH_durability.json``: replication factor × churn ×
    {chain, quorum} × {successor, ring_scoped} cells on both stacks with
    data-loss probability, read staleness, and hinted-handoff traffic.
``scenario-bench``
    Run the failure-campaign scenario suite (``repro.experiments.scenarios_exp``)
    and write ``BENCH_scenarios.json``: six named campaigns × both
    stacks with availability, route stretch, recovery time and data
    durability per cell; ``--check`` enforces the pinned regression
    gates on the correlated regional failure.
``serve-bench``
    Run the serving-layer saturation study (``repro.experiments.serve_exp``)
    and write ``BENCH_serve.json``: offered load vs achieved throughput
    vs p99 on both stacks, the flash-crowd admission-control pair, the
    coalescing pair at the knee, and the churn cell.
``scale-bench``
    Run the million-peer scale benchmark (``repro.experiments.scale_exp``)
    and write ``BENCH_scale.json``: build time, membership-wave time,
    streamed lookups/sec and peak RSS per network size on both stacks,
    plus the deterministic contracts — zero full rebuilds during waves,
    incremental state bit-identical to a rebuild, and cross-stack
    owner-checksum agreement; exit 1 if any contract bit is false.

``run`` additionally drops one ``metrics_<id>.json`` artifact per
experiment (structured result data; directory overridable via
``REPRO_ARTIFACT_DIR``) so CI can collect machine-readable outputs
alongside the printed reports.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.config import is_full_scale
from repro.experiments.figures import EXPERIMENTS, get_experiment

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.id.ljust(width)}  {exp.title}")
        print(f"{' ' * width}  paper: {exp.paper_claim}")
    return 0


def _json_default(obj: object) -> object:
    """JSON fallback for numpy scalars/arrays inside result data."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(obj)


def _write_metrics_artifact(result, *, full: bool, seed: int, wall_s: float) -> None:
    """Drop one machine-readable artifact per finished experiment.

    Written to ``REPRO_ARTIFACT_DIR`` (default: cwd, gitignored) so CI
    can upload the structured numbers behind each printed report.
    """
    import json
    import os
    from pathlib import Path

    doc = {
        "experiment": result.experiment_id,
        "title": result.title,
        "seed": seed,
        "full": full,
        "wall_s": wall_s,
        "diverged": "[DIVERGES]" in result.text,
        "data": result.data,
    }
    path = Path(os.environ.get("REPRO_ARTIFACT_DIR", "."))
    try:
        target = path / f"metrics_{result.experiment_id}.json"
        target.write_text(
            json.dumps(doc, indent=2, default=_json_default), encoding="utf-8"
        )
        print(f"(wrote {target})")
    except OSError:  # pragma: no cover - unwritable artifact dir
        pass


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    full = is_full_scale(True if args.full else None)
    failures = 0
    for experiment_id in ids:
        exp = get_experiment(experiment_id)
        print("=" * 72)
        print(f"{exp.id}: {exp.title}  [{'full' if full else 'reduced'} scale, seed {args.seed}]")
        print(f"paper claim: {exp.paper_claim}")
        print("-" * 72)
        start = time.perf_counter()  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
        result = exp.run(full, args.seed)
        wall_s = time.perf_counter() - start  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
        print(result.text)
        print(f"({wall_s:.1f}s)")
        if "[DIVERGES]" in result.text:
            failures += 1
        _write_metrics_artifact(result, full=full, seed=args.seed, wall_s=wall_s)
        print()
    if failures:
        print(f"{failures} experiment(s) diverged from the paper's claims")
    return 1 if failures else 0


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.sweep import SweepSpec, run_sweep, write_csv

    spec = SweepSpec(
        models=tuple(args.models.split(",")),
        sizes=_parse_ints(args.sizes),
        landmarks=_parse_ints(args.landmarks),
        depths=_parse_ints(args.depths),
        seeds=_parse_ints(args.seeds),
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

    full = is_full_scale(True if args.full else None)
    scale = "full (paper)" if full else "reduced"
    lines = [
        "# HIERAS reproduction report",
        "",
        f"Scale: {scale}.  Master seed: {args.seed}.",
        "",
    ]
    failures = 0
    for exp in EXPERIMENTS.values():
        print(f"running {exp.id}...", flush=True)
        start = time.perf_counter()  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
        result = exp.run(full, args.seed)
        elapsed = time.perf_counter() - start  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
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


def _cmd_perf_baseline(args: argparse.Namespace) -> int:
    from repro.experiments.baseline import run_perf_baseline, write_baseline

    full = is_full_scale(True if args.full else None)
    doc = run_perf_baseline(full=full, seed=args.seed)
    path = write_baseline(doc, args.out)
    for name, phase in doc["phases"].items():
        if "wall_ms" in phase:
            print(f"  {name:<16} {phase['wall_ms']:10.1f} ms")
    for net in ("chord", "hieras"):
        m = doc["metrics"][net]
        print(
            f"  {net:<8} hops mean {m['hops']['mean']:.2f} p99 {m['hops']['p99']:.2f}  "
            f"latency mean {m['latency_ms']['mean']:.0f}ms "
            f"low-layer {100 * m['low_layer_hop_share']:.1f}%"
        )
    print(f"wrote {path}")
    return 0


def _cmd_batch_bench(args: argparse.Namespace) -> int:
    from repro.experiments.batchbench import run_bench_batchroute, write_bench_batchroute

    full = is_full_scale(True if args.full else None)
    doc = run_bench_batchroute(full=full, seed=args.seed)
    path = write_bench_batchroute(doc, args.out)
    for name, cell in doc["metrics"]["cells"].items():
        phase = doc["phases"][name]
        agree = "ok" if cell["engines_agree"] else "MISMATCH"
        print(
            f"  {name:<14} scalar {phase['scalar_lookups_per_s']:>9.0f}/s  "
            f"batch {phase['batch_lookups_per_s']:>10.0f}/s  "
            f"speedup {phase['speedup']:5.1f}x  "
            f"traced {phase['traced_lookups_per_s']:>10.0f}/s "
            f"({phase['traced_overhead']:.2f}x batch)  engines {agree}"
        )
    print(f"wrote {path}")
    return 0 if all(c["engines_agree"] for c in doc["metrics"]["cells"].values()) else 1


def _cmd_cache_bench(args: argparse.Namespace) -> int:
    from repro.experiments.cache_exp import run_bench_cache, write_bench_cache

    full = is_full_scale(True if args.full else None)
    doc = run_bench_cache(full=full, seed=args.seed)
    path = write_bench_cache(doc, args.out)
    for name, phase in doc["phases"].items():
        if "wall_ms" in phase:
            print(f"  {name:<16} {phase['wall_ms']:10.1f} ms")
    for stack, h in doc["metrics"]["headline"].items():
        print(
            f"  {stack:<8} latency -{h['latency_reduction_percent']:.1f}%  "
            f"hops -{h['hop_reduction_percent']:.1f}%  "
            f"hit rate {100 * h['hit_rate']:.1f}%  "
            f"load concentration {h['uncached_concentration']:.1f} -> "
            f"{h['cached_concentration']:.1f}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_durability_bench(args: argparse.Namespace) -> int:
    from repro.experiments.durability import run_bench_durability, write_bench_durability

    full = is_full_scale(True if args.full else None)
    doc = run_bench_durability(full=full, seed=args.seed)
    path = write_bench_durability(doc, args.out)
    for name, phase in doc["phases"].items():
        if "wall_ms" in phase:
            print(f"  {name:<16} {phase['wall_ms']:10.1f} ms")
    headline = doc["metrics"]["headline"]
    for stack, pair in headline["handoff_loss"].items():
        divergence = headline["chain_vs_quorum"][stack]
        print(
            f"  {stack:<8} put success chain {divergence['chain_put_success']:.3f} "
            f"vs quorum {divergence['quorum_put_success']:.3f}  "
            f"loss handoff-on {pair['on']:.3f} vs off {pair['off']:.3f}"
        )
    locality = headline["ring_locality"]["hieras"]
    print(
        f"  hieras ring-scoped put latency {locality['ring_scoped_put_latency_ms']:.0f} ms "
        f"vs successor {locality['successor_put_latency_ms']:.0f} ms "
        f"(loss {locality['ring_scoped_loss']:.3f} vs {locality['successor_loss']:.3f})"
    )
    print(f"wrote {path}")
    return 0


def _cmd_scenario_bench(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios_exp import (
        check_gates,
        run_bench_scenarios,
        write_bench_scenarios,
    )

    full = is_full_scale(True if args.full else None)
    doc = run_bench_scenarios(full=full, seed=args.seed)
    path = write_bench_scenarios(doc, args.out)
    for name, phase in doc["phases"].items():
        if "wall_ms" in phase:
            print(f"  {name:<24} {phase['wall_ms']:10.1f} ms")
    for name, cells in doc["metrics"]["scenarios"].items():
        for stack, cell in cells.items():
            print(
                f"  {name:<24} {stack:<8} "
                f"avail min {cell['availability_min']:.3f} "
                f"recovery {cell['recovery_ms']:6.0f} ms  "
                f"stretch {cell['stretch_mean']:.2f}  "
                f"loss {cell['loss_probability']:.3f}"
            )
    print(f"wrote {path}")
    if args.check:
        violations = check_gates(doc)
        for violation in violations:
            print(f"GATE VIOLATION: {violation}")
        if violations:
            return 1
        print("all scenario gates hold")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.experiments.serve_exp import run_bench_serve, write_bench_serve

    full = is_full_scale(True if args.full else None)
    doc = run_bench_serve(full=full, seed=args.seed)
    path = write_bench_serve(doc, args.out)
    for name, phase in doc["phases"].items():
        if "wall_ms" in phase:
            print(f"  {name:<16} {phase['wall_ms']:10.1f} ms")
    headline = doc["metrics"]["headline"]
    for stack, shift in headline["knee_shift"].items():
        admission = headline["admission"][stack]
        knee = headline["knee"][stack]
        print(
            f"  {stack:<8} knee {knee['achieved_max_per_s']:.0f}/s "
            f"(model {knee['model_capacity_per_s']:.0f})  "
            f"scalar {shift['scalar_achieved_per_s']:.0f}/s vs "
            f"batched {shift['batched_achieved_per_s']:.0f}/s  "
            f"flash q_p99 {admission['unbounded_queue_p99_ms']:.0f} -> "
            f"{admission['bounded_queue_p99_ms']:.0f} ms bounded"
        )
    print(f"wrote {path}")
    return 0


def _cmd_scale_bench(args: argparse.Namespace) -> int:
    from repro.experiments.scale_exp import run_bench_scale, write_bench_scale

    full = is_full_scale(True if args.full else None)
    doc = run_bench_scale(full=full, seed=args.seed)
    path = write_bench_scale(doc, args.out)
    ok = True
    for name, cell in doc["metrics"]["cells"].items():
        n = cell["n_peers"]
        mem = cell["membership"]
        contracts = (
            mem["full_rebuilds_during_waves_chord"] == 0
            and mem["full_rebuilds_during_waves_hieras"] == 0
            and mem["incremental_matches_rebuild"]
            and cell["stacks_agree_owners"]
            and cell["engines_agree"] is not False
        )
        ok = ok and contracts
        build = doc["phases"][f"build_n{n}"]
        print(
            f"  {name:<10} build {build['wall_ms'] / 1000.0:7.2f} s  "
            f"chord {doc['phases'][f'chord_lookup_n{n}']['lookups_per_s']:>9.0f}/s  "
            f"hieras {doc['phases'][f'hieras_lookup_n{n}']['lookups_per_s']:>9.0f}/s  "
            f"rss {doc['phases'][f'hieras_lookup_n{n}']['peak_rss_mb']:>7.0f} MB  "
            f"contracts {'ok' if contracts else 'VIOLATED'}"
        )
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="hieras-experiments",
        description="Reproduce the HIERAS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments").set_defaults(func=_cmd_list)
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run.add_argument("--full", action="store_true", help="paper-scale parameters")
    run.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    run.set_defaults(func=_cmd_run)
    sweep = sub.add_parser("sweep", help="evaluate a custom parameter grid")
    sweep.add_argument("--models", default="ts", help="comma list: ts,inet,brite")
    sweep.add_argument("--sizes", default="1000", help="comma list of peer counts")
    sweep.add_argument("--landmarks", default="4", help="comma list of landmark counts")
    sweep.add_argument("--depths", default="2", help="comma list of depths (2-4)")
    sweep.add_argument("--seeds", default="42", help="comma list of seeds")
    sweep.add_argument("--requests", type=int, default=10_000, help="requests per cell")
    sweep.add_argument("--out", default=None, help="write rows to this CSV path")
    sweep.set_defaults(func=_cmd_sweep)
    report = sub.add_parser("report", help="run everything, write a markdown report")
    report.add_argument("--out", default="report.md", help="output path (default report.md)")
    report.add_argument("--full", action="store_true", help="paper-scale parameters")
    report.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    report.set_defaults(func=_cmd_report)
    baseline = sub.add_parser(
        "perf-baseline", help="run the perf-baseline pipeline, write BENCH_baseline.json"
    )
    baseline.add_argument(
        "--out", default="BENCH_baseline.json",
        help="output path (default BENCH_baseline.json)",
    )
    baseline.add_argument("--full", action="store_true", help="paper-scale parameters")
    baseline.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    baseline.set_defaults(func=_cmd_perf_baseline)
    cache = sub.add_parser(
        "cache-bench", help="run the cache-effect sweep, write BENCH_cache.json"
    )
    cache.add_argument(
        "--out", default="BENCH_cache.json",
        help="output path (default BENCH_cache.json)",
    )
    cache.add_argument("--full", action="store_true", help="paper-scale parameters")
    cache.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    cache.set_defaults(func=_cmd_cache_bench)
    batch = sub.add_parser(
        "batch-bench",
        help="benchmark batch vs scalar routing, write BENCH_batchroute.json",
    )
    batch.add_argument(
        "--out", default="BENCH_batchroute.json",
        help="output path (default BENCH_batchroute.json)",
    )
    batch.add_argument("--full", action="store_true", help="paper-scale parameters")
    batch.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    batch.set_defaults(func=_cmd_batch_bench)
    durability = sub.add_parser(
        "durability-bench",
        help="run the durability-under-churn sweep, write BENCH_durability.json",
    )
    durability.add_argument(
        "--out", default="BENCH_durability.json",
        help="output path (default BENCH_durability.json)",
    )
    durability.add_argument("--full", action="store_true", help="paper-scale parameters")
    durability.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    durability.set_defaults(func=_cmd_durability_bench)
    scenario = sub.add_parser(
        "scenario-bench",
        help="run the failure-campaign scenario suite, write BENCH_scenarios.json",
    )
    scenario.add_argument(
        "--out", default="BENCH_scenarios.json",
        help="output path (default BENCH_scenarios.json)",
    )
    scenario.add_argument("--full", action="store_true", help="paper-scale parameters")
    scenario.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    scenario.add_argument(
        "--check", action="store_true",
        help="evaluate the pinned regression gates; exit 1 on any violation",
    )
    scenario.set_defaults(func=_cmd_scenario_bench)
    serve = sub.add_parser(
        "serve-bench",
        help="run the serving-layer saturation study, write BENCH_serve.json",
    )
    serve.add_argument(
        "--out", default="BENCH_serve.json",
        help="output path (default BENCH_serve.json)",
    )
    serve.add_argument("--full", action="store_true", help="paper-scale parameters")
    serve.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    serve.set_defaults(func=_cmd_serve_bench)
    scale = sub.add_parser(
        "scale-bench",
        help="run the million-peer scale benchmark, write BENCH_scale.json",
    )
    scale.add_argument(
        "--out", default="BENCH_scale.json",
        help="output path (default BENCH_scale.json)",
    )
    scale.add_argument(
        "--full", action="store_true",
        help="paper-scale parameters (N up to 1,000,000 peers, 10^7 lookups)",
    )
    scale.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    scale.set_defaults(func=_cmd_scale_bench)
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
