"""One workload, one process: set up, measure, check, report.

``perfbench/run.py`` lands here.  The untraced run yields the
end-to-end metrics; the traced run times the workload's loop with spans
off and then on (their ratio is ``trace_overhead_ratio``), runs every
layer probe, and writes the spans as JSONL when it ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
import scipy

from repro.scale import hot_state_bytes
from repro.util.proc import peak_rss_mb

from perfbench import probes
from perfbench.deploy import Deployment, fill_checks, networks, route_pass
from perfbench.spec import (
    DRIVER_ALIAS,
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    SIM_PER_LAYER,
    end_to_end_for,
)
from perfbench.tracing import Tracer, median
from perfbench.workloads import WORKLOADS, Measurement, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Sizes of the layer probes: the wave of churn_waves, the cell of
#: serve_mix, and the probes' own.  A workload's own sizes take precedence.
PROBE_FULL: dict[str, Any] = {
    **WORKLOADS["churn_waves"].full, **WORKLOADS["serve_mix"].full,
    "engine_lanes": 65_536, "narrow_calls": 200, "scalar_lanes": 1000,
    "probe_waves": 12, "traced_lanes": 2048, "store_gets": 300, "probe_duration_ms": 1500.0,
}
PROBE_SMOKE: dict[str, Any] = {
    **WORKLOADS["churn_waves"].smoke, **WORKLOADS["serve_mix"].smoke,
    "engine_lanes": 1024, "narrow_calls": 20, "scalar_lanes": 100,
    "probe_waves": 3, "traced_lanes": 128, "store_gets": 50, "probe_duration_ms": 400.0,
}

#: The rate a workload's loop is judged by (for the tracing overhead).
_PRIMARY = ("lookups_per_s", "requests_per_s")


def sim_sha256(sim: dict[str, Any]) -> str:
    """Digest of a sim block; ``repr`` keeps every digit of a float."""
    canonical = json.dumps({k: repr(v) for k, v in sim.items()}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _block_counts(dep: Deployment) -> tuple[int, int]:
    model = dep.bundle.peer_latency.model
    return int(getattr(model, "cache_misses", 0)), int(getattr(model, "cache_hits", 0))


def _set_up(wl: Workload, tracer: Tracer, repeats: int) -> tuple[Deployment, float]:
    """Set up ``repeats`` times; the last deployment and the median seconds."""
    dep = None
    seconds = []
    for _ in range(repeats):
        dep = None  # one deployment alive at a time, or peak RSS doubles
        gc.collect()
        start = time.perf_counter()
        dep = wl.setup(tracer)
        seconds.append(time.perf_counter() - start)
    assert dep is not None
    return dep, median(seconds)


def _layer_metrics(
    wl: Workload, dep: Deployment, tracer: Tracer, seed: int, smoke: bool
) -> tuple[dict[str, float], dict[str, bool]]:
    """Every per-layer metric that comes from set-up spans or a probe."""
    p = {**(PROBE_SMOKE if smoke else PROBE_FULL), **wl.p}
    streaming = bool(wl.p.get("streaming", False))
    out: dict[str, float] = {
        "scale.build_s": dep.stage_s["scale.build_s"],
        "workloads.make_trace_s": dep.stage_s["workloads.make_trace_s"],
        "topology.latency.rss_delta_mb": dep.fill_rss_delta_mb,
    }
    # The fill pass again, now warm: what the first one paid for being cold.
    cold = sum(dep.stage_s[f"fill.{stack}_s"] for stack, _ in networks(dep.bundle))
    warm = sum(
        sum(route_pass(net, dep.trace, dep.chunk, tracer, f"setup.refill.{stack}").chunk_s)
        for stack, net in networks(dep.bundle)
    )
    out["topology.latency.cold_fill_s"] = cold - warm
    checks: dict[str, bool] = {}
    for layer, layer_checks in (
        probes.staged_build(dep, streaming=streaming, tracer=tracer),
        probes.probe_engine(dep, tracer, p),
        probes.probe_membership(dep, tracer, p, seed),
        probes.probe_metrics(dep, tracer, p),
        probes.probe_serve(dep, tracer, p, seed),
    ):
        out.update(layer)
        checks.update(layer_checks)
    misses, hits = _block_counts(dep)
    out["topology.latency.block_misses"] = float(misses)
    out["topology.latency.block_hits"] = float(hits)
    return out, checks


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool = False,
    out_dir: Path = OUT_DIR,
) -> dict[str, Any]:
    """Run one workload to a result document (see perfbench/README.md)."""
    started = time.perf_counter()
    calib = probes.host_calibration()
    wl = WORKLOADS[name](seed, smoke=smoke)
    tracer = Tracer(enabled=trace)
    dep, setup_s = _set_up(wl, tracer, 1 if trace or smoke else wl.setup_repeats)
    misses_after_setup = _block_counts(dep)[0]
    checks = fill_checks(dep)
    hieras = dep.bundle.hieras
    state = hot_state_bytes(dep.bundle)
    sim: dict[str, Any] = {
        **dep.sim(),
        "core.hieras.lowest_rings": float(len(hieras.rings_at_layer(hieras.depth))),
        "core.hieras.median_ring_size": float(np.median(hieras.ring_sizes(hieras.depth))),
        "scale.hot_state_bytes.chord": float(state["chord_bytes"]),
        "scale.hot_state_bytes.hieras": float(state["hieras_bytes"]),
    }

    layers: dict[str, float] = {}
    if trace:
        tracer.enabled = False
        plain = wl.measure(dep, 0.3 * seconds, tracer)
        tracer.enabled = True
    m: Measurement = wl.measure(dep, (0.3 if trace else 1.0) * seconds, tracer)
    checks["no_block_misses_after_setup"] = _block_counts(dep)[0] == misses_after_setup
    checks.update(m.checks)
    if trace:
        layers, layer_checks = _layer_metrics(wl, dep, tracer, seed, smoke)
        checks.update(layer_checks)
        rate = next(k for k in _PRIMARY if k in m.host)
        layers["trace_overhead_ratio"] = plain.host[rate] / m.host[rate]
        layers.update(calib)
        m.attempted += plain.attempted
        m.failed += plain.failed
        checks.update({f"untraced.{k}": v for k, v in plain.checks.items()})

    failed = m.failed + sum(1 for ok in checks.values() if not ok)
    sim.update(m.sim)
    sim["failed_fraction"] = failed / m.attempted
    sim.update({k: v for k, v in layers.items() if k in SIM_PER_LAYER})
    host = {**m.host, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}

    end_to_end = {}
    for metric in end_to_end_for(name):
        value = host[metric.name] if metric.kind == "host" else sim[metric.name]
        entry: dict[str, Any] = {
            "value": value, "unit": metric.unit, "kind": metric.kind, "better": metric.better,
        }
        if metric.name in m.timings:
            entry["timing"] = m.timings[metric.name]
        end_to_end[metric.name] = entry
    doc: dict[str, Any] = {
        "schema": "perfbench.workload/1",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "end_to_end": end_to_end,
        "sim": sim,
        "sim_sha256": sim_sha256(sim),
        "checks": checks,
        "attempted": m.attempted,
        "failed": failed,
        "correct": failed == 0,
        "setup_stages_s": dep.stage_s,
        "host": {
            **calib,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        units = {n: unit for n, unit, _ in PER_LAYER}
        doc["per_layer"] = {
            n: {
                # Undeclared extras (a ratio's bases) are rates or ratios.
                "value": v,
                "unit": units.get(n, "1/s" if n.endswith("_per_s") else "ratio"),
                "kind": "sim" if n in SIM_PER_LAYER else "host",
            }
            for n, v in sorted({**layers, **{k: sim[k] for k in units if k in sim}}.items())
        }
        spans = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans)
        doc["spans_file"] = spans.name
        doc["spans"] = len(tracer.spans)
    doc["wall_s"] = time.perf_counter() - started
    return doc


def driver_result(doc: dict[str, Any]) -> dict[str, Any]:
    """The one-line result the benchmark contract asks for."""
    name = doc["workload"]
    if doc["trace"]:
        metrics = {
            n: {"value": doc["per_layer"][n]["value"], "unit": unit} for n, unit, _ in PER_LAYER
        }
    else:
        units = {m.name: m.unit for m in END_TO_END}
        metrics = {
            n: {
                "value": doc["end_to_end"][DRIVER_ALIAS.get((name, n), n)]["value"],
                "unit": units[n],
            }
            for n in DRIVER_END_TO_END
        }
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def print_doc(doc: dict[str, Any]) -> None:
    """Every metric by name, with its unit and whether it is host or sim."""
    print(f"# {doc['workload']} seed={doc['seed']} trace={int(doc['trace'])} "
          f"wall={doc['wall_s']:.1f}s")
    for block in ("end_to_end", "per_layer"):
        for name, entry in doc.get(block, {}).items():
            line = f"{name} = {entry['value']:.6g} {entry['unit']} [{entry['kind']}]"
            timing = entry.get("timing")
            if timing and "p50" in timing:
                line += f"  ({timing['what']}: n={timing['n']} p50={timing['p50']:.4g}"
                if "tail" in timing:
                    line += f" p{timing['tail']['p']:g}={timing['tail']['value']:.4g}"
                line += ")"
            print(line)
    bad = [k for k, ok in doc["checks"].items() if not ok]
    print(f"checks: {len(doc['checks']) - len(bad)}/{len(doc['checks'])} pass"
          + (f"; FAILED: {', '.join(bad)}" if bad else "")
          + f"; sim sha256 {doc['sim_sha256'][:16]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--doc", type=Path, help="also write the full result document here")
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="directory for the span JSONL")
    args = parser.parse_args(argv)
    doc = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke, out_dir=args.out,
    )
    print_doc(doc)
    if args.doc is not None:
        args.doc.parent.mkdir(parents=True, exist_ok=True)
        args.doc.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.flush()
    print(json.dumps(driver_result(doc)))
    return 0 if doc["correct"] else 1
