"""Perf-baseline pipeline: wall-time per phase + deterministic metrics.

One run builds a deployment, routes a seeded trace through both
trace-driven stacks with span collection on, and drives a small
protocol-stack smoke on the discrete-event engine with a registry
attached — producing a single JSON document (``BENCH_baseline.json``)
with two clearly separated sections:

* ``phases`` — wall-clock milliseconds per pipeline phase, measured
  with :func:`time.perf_counter`.  **Nondeterministic** (machine- and
  load-dependent); useful for spotting order-of-magnitude regressions.
* ``metrics`` — hop/latency aggregates and simulator/protocol counters.
  **Deterministic**: re-running the same seed reproduces this section
  bit-for-bit, which is what the regression check in
  ``tests/test_perf_baseline.py`` pins.

The CLI front-end is ``python -m repro.experiments perf-baseline``;
the pytest benchmark (``benchmarks/bench_baseline.py``) dispatches
through the registered ``perf_baseline`` experiment.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.metrics.registry import MetricsRegistry
from repro.metrics.sinks import SummarySink
from repro.metrics.spans import SpanRecorder
from repro.util.proc import peak_rss_mb

__all__ = ["run_perf_baseline", "write_baseline", "SCHEMA"]

SCHEMA = "repro.perf_baseline/1"


def _traced_routes(network, trace) -> dict[str, object]:
    """Route the whole trace with spans on; returns the aggregate block.

    ``batch_route`` records one span per lookup whichever engine it
    picks, byte-identical to the scalar per-request loop (pinned by
    ``tests/test_engine.py``), so this summary block is too.
    """
    from repro.engine import batch_route

    sink = SummarySink()
    network.enable_tracing(SpanRecorder(registry=MetricsRegistry(), sinks=[sink]))
    try:
        batch_route(network, trace.sources, trace.keys)
    finally:
        network.disable_tracing()
    return sink.summary(network.span_label)


def _protocol_smoke(seed: int, *, universe: int = 16, n_rings: int = 2,
                    n_lookups: int = 24) -> dict[str, object]:
    """Bootstrap a small §3.3 system and run lookups with metrics attached.

    Returns the registry snapshot (sim.* and protocol.* counters) plus
    a completion count — all deterministic given ``seed`` because the
    event engine is single-threaded and tie-stable.
    """
    from repro.core.hieras_protocol import HierasProtocolNode
    from repro.dht.base import ZeroLatency
    from repro.sim.engine import Simulator
    from repro.sim.network import SimNetwork
    from repro.util.ids import IdSpace
    from repro.util.rng import make_rng

    space = IdSpace(16)
    rng = make_rng(seed)
    ids = space.sample_unique_ids(universe, rng)
    names = [[str(p % n_rings)] for p in range(universe)]
    registry = MetricsRegistry()
    sim = Simulator()
    sim.attach_metrics(registry)
    net = SimNetwork(sim, ZeroLatency(), loss_seed=seed)
    net.attach_metrics(registry)
    nodes = [
        HierasProtocolNode(p, int(ids[p]), space, sim, net) for p in range(universe)
    ]
    nodes[0].found_system(names[0], landmark_table=[1, 2])
    t = 0.0
    for p in range(1, universe):
        t += 300.0
        sim.schedule_at(t, nodes[p].join_system, 0, names[p])
    sim.run(until=t + 30_000, max_events=10_000_000)

    completed = []
    for i in range(n_lookups):
        origin = nodes[int(rng.integers(0, universe))]
        key = int(rng.integers(0, space.size))
        sim.schedule(
            float(i), origin.hieras_lookup, key, lambda o: completed.append(o)
        )
    sim.run(until=sim.now + 30_000, max_events=10_000_000)

    snapshot = registry.snapshot()
    return {
        "lookups_issued": n_lookups,
        "lookups_completed": len(completed),
        "counters": snapshot["counters"],
        "gauges": {k: v for k, v in snapshot["gauges"].items() if k != "sim.queue_depth"},
        "histograms": {
            name: registry.histogram(name).summary()
            for name in sorted(snapshot["histograms"])
        },
    }


def run_perf_baseline(
    *,
    full: bool = False,
    seed: int = 42,
    n_peers: int | None = None,
    n_requests: int | None = None,
) -> dict[str, object]:
    """Run every phase once; returns the BENCH_baseline document."""
    if n_peers is None:
        n_peers = 3000 if full else 1000
    if n_requests is None:
        n_requests = 12_000 if full else 3_000

    phases: dict[str, dict[str, float]] = {}

    def timed(name: str):
        class _Phase:
            def __enter__(self_inner):
                self_inner.t0 = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
                return self_inner

            def __exit__(self_inner, *exc):
                phases[name] = {
                    "wall_ms": (time.perf_counter() - self_inner.t0) * 1000.0  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
                }
                return False

        return _Phase()

    with timed("build"):
        bundle = build_bundle(SimConfig(n_peers=n_peers, seed=seed))
    with timed("trace"):
        trace = make_trace(bundle, n_requests)
    with timed("chord_routes"):
        chord_metrics = _traced_routes(bundle.chord, trace)
    with timed("hieras_routes"):
        hieras_metrics = _traced_routes(bundle.hieras, trace)
    with timed("protocol_smoke"):
        protocol_metrics = _protocol_smoke(seed)

    phases["peak_rss"] = {"peak_rss_mb": peak_rss_mb()}
    return {
        "schema": SCHEMA,
        "config": {
            "full": full,
            "seed": seed,
            "n_peers": n_peers,
            "n_requests": n_requests,
            "depth": bundle.config.depth,
            "model": bundle.config.model,
        },
        "phases": phases,
        "metrics": {
            "chord": chord_metrics,
            "hieras": hieras_metrics,
            "protocol": protocol_metrics,
        },
    }


def write_baseline(doc: dict[str, object], out: str | Path) -> Path:
    """Write one baseline document as stable, indented JSON."""
    path = Path(out)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
