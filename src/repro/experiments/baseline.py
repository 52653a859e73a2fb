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
  bit-for-bit, which ``bench perf_baseline --check`` (CI) and
  ``tests/test_bench.py`` pin.

Registered as the ``perf_baseline`` experiment (see
:mod:`repro.experiments.bench` for the bench-module convention);
``python -m repro.experiments bench perf_baseline`` writes the document.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.metrics.registry import MetricsRegistry
from repro.metrics.sinks import SummarySink
from repro.metrics.spans import SpanRecorder

__all__ = ["SCHEMA", "report", "run_bench"]

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


def run_bench(
    *,
    seed: int = 42,
    n_peers: int = 1000,
    n_requests: int = 3_000,
) -> dict[str, object]:
    """Run every phase once; returns the BENCH_baseline document."""
    bench = BenchRun(SCHEMA, seed=seed)
    with bench.timed("build"):
        bundle = build_bundle(SimConfig(n_peers=n_peers, seed=seed))
    with bench.timed("trace"):
        trace = make_trace(bundle, n_requests)
    with bench.timed("chord_routes"):
        chord_metrics = _traced_routes(bundle.chord, trace)
    with bench.timed("hieras_routes"):
        hieras_metrics = _traced_routes(bundle.hieras, trace)
    with bench.timed("protocol_smoke"):
        protocol_metrics = _protocol_smoke(seed)

    return bench.document(
        config={
            "n_peers": n_peers,
            "n_requests": n_requests,
            "depth": bundle.config.depth,
            "model": bundle.config.model,
        },
        metrics={
            "chord": chord_metrics,
            "hieras": hieras_metrics,
            "protocol": protocol_metrics,
        },
    )


def report(doc: dict[str, object]) -> str:
    """Render the perf-baseline report from its document.

    Wall times come from ``phases`` (machine-dependent, shown for
    regression spotting only); the claims read only ``metrics``, a pure
    function of the seed.
    """
    metrics = doc["metrics"]
    rows = []
    for net in ("chord", "hieras"):
        m = metrics[net]
        rows.append(
            {
                "network": net,
                "lookups": int(m["lookups"]),
                "mean_hops": round(m["hops"]["mean"], 2),
                "p99_hops": round(m["hops"]["p99"], 2),
                "mean_latency_ms": round(m["latency_ms"]["mean"], 0),
                "p99_latency_ms": round(m["latency_ms"]["p99"], 0),
                "low_layer_hop_%": round(100 * m["low_layer_hop_share"], 1),
            }
        )
    proto = metrics["protocol"]
    config = doc["config"]
    n_requests = config["n_requests"]
    phase_line = "  ".join(
        f"{name}={p['wall_ms']:.0f}ms"
        for name, p in doc["phases"].items()
        if "wall_ms" in p
    )
    lines = [
        f"{config['n_peers']} peers, {n_requests} lookups, seed {config['seed']}; "
        "wall times are machine-dependent, metrics are seed-deterministic",
        format_table(rows),
        "",
        f"phases (wall): {phase_line}",
        f"protocol smoke: {int(proto['counters'].get('sim.messages_sent', 0))} "
        f"messages, {int(proto['counters'].get('sim.events_processed', 0))} events",
        "",
        claim(
            metrics["chord"]["lookups"] == n_requests
            and metrics["hieras"]["lookups"] == n_requests,
            "span collection sees every routed request on both stacks",
        ),
        claim(
            metrics["hieras"]["low_layer_hop_share"] > 0.5,
            "the majority of HIERAS hops resolve inside lower-layer rings "
            "(§4.3's mechanism, observed per-hop by the span layer)",
        ),
        claim(
            metrics["hieras"]["latency_ms"]["mean"]
            < metrics["chord"]["latency_ms"]["mean"],
            "HIERAS's latency advantage shows up in the streaming histograms",
        ),
        claim(
            proto["lookups_completed"] == proto["lookups_issued"],
            "protocol smoke: every scheduled lookup completes with the "
            "simulator registry attached",
        ),
    ]
    return "\n".join(lines)
