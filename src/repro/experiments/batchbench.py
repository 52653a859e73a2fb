"""Batch-routing benchmark: the vectorized engine vs the scalar loop.

One run builds a deployment per network size, routes the same seeded
trace through both trace-driven stacks twice — once with the scalar
per-request loop, once through :mod:`repro.engine`'s frontier-stepped
batch kernels — and writes ``BENCH_batchroute.json`` in the
``BENCH_baseline.json`` convention:

* ``phases`` — wall-clock milliseconds and lookups/sec per (stack, N)
  cell plus the resulting speedup, and a third, batch pass with a
  registry-only span recorder attached (``traced_lookups_per_s``;
  ``traced_overhead`` = its wall time ÷ the untraced batch pass's).
  **Nondeterministic** (machine- and load-dependent); the headline
  number (">= 5x at N=4096") lives here.
* ``metrics`` — per-cell route aggregates **and the engines-agree
  bits**: exact array equality (hop counts, bit-identical float
  latencies, layer splits) between the two engines.  **Deterministic**:
  a pure function of the seed.

CLI front-end: ``python -m repro.experiments batch-bench``; the pytest
benchmark (``benchmarks/bench_batchroute.py``) dispatches through the
registered ``batch_route`` experiment.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.stats import RouteSample, collect_routes
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import SpanRecorder
from repro.util.proc import peak_rss_mb

__all__ = ["SCHEMA", "run_bench_batchroute", "write_bench_batchroute"]

SCHEMA = "repro.bench_batchroute/1"

#: The acceptance-gate cell: the batch engine must beat the scalar loop
#: by at least this factor at this network size on at least one stack.
HEADLINE_N = 4096
HEADLINE_SPEEDUP = 5.0


def _samples_agree(a: RouteSample, b: RouteSample) -> bool:
    """Exact equality of every array in two route samples.

    Float arrays are compared with ``==`` (no tolerance): the batch
    engine's contract is *bit-identical* latencies, not merely close.
    """
    return (
        bool(np.array_equal(a.hops, b.hops))
        and bool(np.array_equal(a.latency_ms, b.latency_ms))
        and bool(np.array_equal(a.low_layer_hops, b.low_layer_hops))
        and bool(np.array_equal(a.top_layer_hops, b.top_layer_hops))
        and bool(np.array_equal(a.low_layer_latency_ms, b.low_layer_latency_ms))
    )


def run_bench_batchroute(
    *,
    full: bool = False,
    seed: int = 42,
    sizes: tuple[int, ...] | None = None,
    n_requests: int | None = None,
) -> dict[str, object]:
    """Benchmark both engines on both stacks; returns the document.

    Per (stack, N) cell the same trace is routed scalar-then-batch and
    the two :class:`~repro.analysis.stats.RouteSample`s are compared
    array-for-array — the deterministic ``engines_agree`` bit in
    ``metrics``.  Wall times and speedups land in ``phases``.
    """
    if sizes is None:
        sizes = (1024, 4096, 10_000) if full else (1024, 4096)
    if n_requests is None:
        n_requests = 50_000 if full else 10_000

    phases: dict[str, dict[str, float]] = {}
    cells: dict[str, dict[str, object]] = {}

    for n_peers in sizes:
        t0 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
        bundle = build_bundle(SimConfig(model="ts", n_peers=n_peers, seed=seed))
        trace = make_trace(bundle, n_requests)
        phases[f"build_n{n_peers}"] = {
            "wall_ms": (time.perf_counter() - t0) * 1000.0  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
        }
        for stack, network in (("chord", bundle.chord), ("hieras", bundle.hieras)):
            t0 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
            scalar = collect_routes(network, trace, engine="scalar")
            t1 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
            batch = collect_routes(network, trace, engine="batch")
            t2 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
            network.enable_tracing(SpanRecorder(MetricsRegistry()))
            try:
                collect_routes(network, trace, engine="batch")
            finally:
                network.disable_tracing()
            t3 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
            scalar_ms = (t1 - t0) * 1000.0
            batch_ms = (t2 - t1) * 1000.0
            traced_ms = (t3 - t2) * 1000.0
            phases[f"{stack}_n{n_peers}"] = {
                "scalar_wall_ms": scalar_ms,
                "batch_wall_ms": batch_ms,
                "scalar_lookups_per_s": n_requests / (scalar_ms / 1000.0),
                "batch_lookups_per_s": n_requests / (batch_ms / 1000.0),
                "speedup": scalar_ms / batch_ms if batch_ms else 0.0,
                "traced_lookups_per_s": n_requests / (traced_ms / 1000.0),
                "traced_overhead": traced_ms / batch_ms if batch_ms else 0.0,
            }
            cells[f"{stack}_n{n_peers}"] = {
                "stack": stack,
                "n_peers": n_peers,
                "lookups": n_requests,
                "engines_agree": _samples_agree(scalar, batch),
                "mean_hops": batch.mean_hops,
                "mean_latency_ms": batch.mean_latency_ms,
                "low_layer_hop_share": batch.low_layer_hop_share,
                "mean_top_layer_hops": batch.mean_top_layer_hops,
            }

    phases["peak_rss"] = {"peak_rss_mb": peak_rss_mb()}
    return {
        "schema": SCHEMA,
        "config": {
            "full": full,
            "seed": seed,
            "sizes": list(sizes),
            "n_requests": n_requests,
            "headline_n": HEADLINE_N,
            "headline_speedup": HEADLINE_SPEEDUP,
        },
        "phases": phases,
        "metrics": {"cells": cells},
    }


def write_bench_batchroute(doc: dict[str, object], out: str | Path) -> Path:
    """Write one BENCH_batchroute document as stable, indented JSON."""
    path = Path(out)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
