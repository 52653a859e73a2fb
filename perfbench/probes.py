"""Per-layer measurements of the traced run.

Each probe calls one layer's public functions directly on the
workload's own deployment, with a span around every call — the layer's
work replayed outside the end-to-end loop, where a layer cannot be
isolated inside it.  Every probe runs on every workload, so a per-layer
number exists at each operating point (N, latency model), not only
where the workload's own loop happens to exercise the layer.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.engine import (
    StreamStats,
    batch_route,
    batch_route_chord,
    replay_spans,
    route_cohort,
    stream_batch_route,
)
from repro.loadgen import SLOReport
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import SpanRecorder
from repro.scale import scale_ts_params
from repro.topology.attach import OverlayAttachment, attach_overlay, place_landmarks
from repro.topology.latency import latency_model_for
from repro.topology.transit_stub import generate_transit_stub
from repro.util.ids import IdSpace
from repro.util.rng import RngFactory

from perfbench.deploy import Deployment, networks
from perfbench.spec import LAYER_OF
from perfbench.tracing import Tracer, median, percentile
from perfbench.workloads import (
    Cell,
    rebuild_matches_splice,
    ring_arrays,
    run_cell,
    seeded_store,
    serve_inputs,
)

#: Repeats behind each probe's median.
_REPS = 3

Probe = tuple[dict[str, float], dict[str, bool]]


def _best_of(tracer: Tracer, name: str, fn: Any, *args: Any) -> tuple[Any, float]:
    """Median wall seconds of ``_REPS`` calls (and the last result)."""
    runs = [tracer.call(name, fn, *args) for _ in range(_REPS)]
    return runs[-1][0], median([dt for _, dt in runs])


def host_calibration() -> dict[str, float]:
    """A fixed numpy microbench, so a slow or busy machine is visible
    next to every host number."""
    rng = np.random.default_rng(0)
    table = np.sort(rng.integers(0, 1 << 62, size=1 << 20, dtype=np.uint64))
    keys = rng.integers(0, 1 << 62, size=1 << 16, dtype=np.uint64)
    index = rng.integers(0, 1 << 20, size=1 << 16)
    tracer = Tracer()
    search = [tracer.call("", np.searchsorted, table, keys)[1] for _ in range(9)]
    gather = [tracer.call("", table.take, index)[1] for _ in range(9)]
    return {
        "host.calib_searchsorted_ns": median(search) / len(keys) * 1e9,
        "host.calib_gather_ns": median(gather) / len(index) * 1e9,
        "host.nproc": float(os.cpu_count() or 1),
    }


def staged_build(dep: Deployment, *, streaming: bool, tracer: Tracer) -> Probe:
    """The build pipeline piece by piece under ``build_scale_bundle``'s
    RNG labels, each stage timed; the result must equal the bundle."""
    config = dep.bundle.config
    rngs = RngFactory(config.seed)
    out: dict[str, float] = {}
    with tracer.span("probe.staged_build"):
        topology, out["topology.generate_s"] = tracer.call(
            "topology.generate",
            lambda: generate_transit_stub(
                scale_ts_params(config.n_routers), seed=rngs.get("topology")
            ),
        )
        model, out["topology.latency.build_s"] = tracer.call(
            "topology.latency.build",
            lambda: latency_model_for(
                topology, streaming_threshold_bytes=1 if streaming else 1 << 30
            ),
        )

        def attach() -> OverlayAttachment:
            routers = attach_overlay(topology, config.n_peers, seed=rngs.get("attach"))
            landmarks = place_landmarks(
                topology, model, config.n_landmarks, seed=rngs.get("landmarks"),
                strategy=config.resolved_landmark_strategy,
            )
            return OverlayAttachment(topology, routers, landmarks)

        attachment, out["topology.attach_s"] = tracer.call("topology.attach", attach)
        space = IdSpace(config.bits)
        node_ids = space.sample_unique_ids(config.n_peers, rngs.get("node-ids"))
        peer_latency = attachment.peer_latency(model)
        chord, out["dht.chord.construct_s"] = tracer.call(
            "dht.chord.construct", lambda: ChordNetwork(space, node_ids, latency=peer_latency)
        )
        orders, out["core.binning.orders_s"] = tracer.call(
            "core.binning.orders",
            lambda: BinningScheme.default_for_depth(config.depth).orders(
                attachment.landmark_distances(model)
            ),
        )
        hieras, out["core.hieras.construct_s"] = tracer.call(
            "core.hieras.construct",
            lambda: HierasNetwork(
                space, node_ids, latency=peer_latency, landmark_orders=orders,
                depth=config.depth, successor_list_r=config.successor_list_r,
                successor_list_policy=config.successor_list_policy,
            ),
        )
    mine = ring_arrays(chord, hieras)
    theirs = ring_arrays(dep.bundle.chord, dep.bundle.hieras)
    same = (
        np.array_equal(node_ids, dep.bundle.node_ids)
        and mine.keys() == theirs.keys()
        and all(np.array_equal(mine[k][0], theirs[k][0]) for k in mine)
    )
    return out, {"staged_build_equals_bundle": bool(same)}


def _hop_pairs(result: Any) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (from, to) peer vectors of each frontier step of a routed
    batch — the exact arguments the hop log hands to ``pairs``."""
    steps = []
    for k in range(int(result.hops.max())):
        lanes = np.flatnonzero(result.hops > k)
        steps.append((result.paths[lanes, k], result.paths[lanes, k + 1]))
    return steps


def probe_engine(dep: Deployment, tracer: Tracer, p: dict[str, int]) -> Probe:
    """The batch engine by parts, on a cohort of the workload's trace."""
    bundle = dep.bundle
    lanes = min(p["engine_lanes"], len(dep.trace))
    src = dep.trace.sources[:lanes]
    keys = np.asarray(dep.trace.keys[:lanes], dtype=np.uint64)
    out: dict[str, float] = {}
    with tracer.span("probe.engine", lanes=lanes):
        chunk_ms: list[float] = []
        whole: dict[str, float] = {}
        for stack, net in networks(bundle):
            runs = [
                tracer.call(f"engine.{stack}.stream_chunk", stream_batch_route, net, src, keys)[1]
                for _ in range(_REPS + 2)
            ]
            chunk_ms += [dt * 1e3 for dt in runs]
            whole[stack] = median(runs)
            out[f"engine.{stack}.lookups_per_s"] = lanes / whole[stack]
        out["engine.chunk_ms_p50"] = percentile(chunk_ms, 50)
        out["engine.chunk_ms_p90"] = percentile(chunk_ms, 90)

        chord = bundle.chord
        start = np.searchsorted(chord.ring.ids, bundle.node_ids[src])
        routed, batch_s = _best_of(tracer, "engine.batch_route_chord", batch_route_chord, chord, src, keys)
        _, out["engine.kernel_s"] = _best_of(
            tracer, "engine.kernel.route_cohort",
            lambda: route_cohort(
                chord.ring, start, keys, to_owner=True, succ_list_r=chord.successor_list_r
            ),
        )
        _, out["engine.absorb_s"] = _best_of(
            tracer, "engine.stream.absorb", lambda: StreamStats().absorb(routed, offset=0)
        )

        pair_s: dict[str, float] = {}
        n_pairs = same_domain = 0
        topology = bundle.topology
        router_of = bundle.attachment.router_of_peer
        for stack, net in networks(bundle):
            with_paths = batch_route(net, src, keys, paths=True)
            if stack == "hieras":
                out["core.hieras.low_layer_latency_share"] = float(
                    with_paths.low_layer_latency_ms().sum() / with_paths.latency_ms.sum()
                )
            steps = _hop_pairs(with_paths)
            pair_s[stack] = median(
                [
                    sum(tracer.call("topology.latency.pairs", net.latency.pairs, us, vs)[1]
                        for us, vs in steps)
                    for _ in range(_REPS)
                ]
            )
            for us, vs in steps:
                n_pairs += len(us)
                dom_u = topology.stub_domain_of[router_of[us]]
                same_domain += int(
                    ((dom_u == topology.stub_domain_of[router_of[vs]]) & (dom_u >= 0)).sum()
                )
        out["topology.latency.pairs_warm_ns"] = sum(pair_s.values()) / n_pairs * 1e9
        out["topology.latency.same_domain_share"] = same_domain / n_pairs
        out["engine.hoplog_s"] = batch_s - out["engine.kernel_s"] - pair_s["chord"]
        # The separately timed parts against an independently timed whole.
        parts = batch_s + out["engine.absorb_s"]
        out["engine.parts_over_whole"] = parts / whole["chord"]

        for width, name in ((1, "engine.width1_lookups_per_s"), (32, "engine.width32_lookups_per_s")):
            calls = p["narrow_calls"]
            spent = 0.0
            for stack, net in networks(bundle):
                for i in range(calls):
                    a = (i * width) % (lanes - width + 1)
                    spent += tracer.call(
                        f"engine.{stack}.batch_route", batch_route, net,
                        src[a : a + width], keys[a : a + width], lanes=width,
                    )[1]
            out[name] = 2 * calls * width / spent
        scalar = p["scalar_lanes"]
        spent = sum(
            tracer.call(
                f"engine.{stack}.scalar_batch_route",
                lambda net=net: batch_route(net, src[:scalar], keys[:scalar], engine="scalar"),
                lanes=scalar,
            )[1]
            for stack, net in networks(bundle)
        )
        out["engine.scalar_lookups_per_s"] = 2 * scalar / spent
    return out, {}


def probe_membership(dep: Deployment, tracer: Tracer, p: dict[str, int], seed: int) -> Probe:
    """Remove/revive waves through both stacks, a direct splice, and a
    forced rebuild that the spliced arrays must equal."""
    bundle = dep.bundle
    n = len(bundle.node_ids)
    rng = RngFactory(seed).get("perfbench-probe-waves")
    nets = networks(bundle)
    before = {
        stack: (net.rebuild_count, net.incremental_waves) for stack, net in nets
    }
    spliced0, skips0 = bundle.hieras.rings_spliced, bundle.hieras.publish_skips
    wave_ms: dict[str, list[float]] = {stack: [] for stack, _ in nets}
    splice_ms: list[float] = []
    with tracer.span("probe.membership"):
        for _ in range(p["probe_waves"]):
            wave = rng.choice(n, size=min(p["wave"], n // 4), replace=False)
            for stack, net in nets:
                for op in ("remove_peers", "revive_peers"):
                    dt = tracer.call(
                        f"{LAYER_OF[stack]}.{op}", getattr(net, op), wave.tolist(), peers=len(wave)
                    )[1]
                    wave_ms[stack].append(dt * 1e3)
            ring = bundle.chord.ring
            at = np.searchsorted(ring.ids, bundle.node_ids[wave])
            smaller, dt_out = tracer.call("dht.ring.splice", ring.splice, at, (), ())
            _, dt_in = tracer.call(
                "dht.ring.splice", smaller.splice, (), bundle.node_ids[wave], wave
            )
            splice_ms += [dt_out * 1e3, dt_in * 1e3]
        out = {"dht.ring.splice_ms_p50": percentile(splice_ms, 50)}
        for stack, net in nets:
            layer = LAYER_OF[stack]
            out[f"{layer}.wave_ms_p50"] = percentile(wave_ms[stack], 50)
            out[f"{layer}.wave_ms_p99"] = percentile(wave_ms[stack], 99)
            out[f"{layer}.full_rebuilds"] = float(net.rebuild_count - before[stack][0])
        out["dht.chord.incremental_waves"] = float(
            bundle.chord.incremental_waves - before["chord"][1]
        )
        out["core.hieras.rings_spliced"] = float(bundle.hieras.rings_spliced - spliced0)
        same, rebuild_s = rebuild_matches_splice(bundle, tracer)
        out["dht.chord.rebuild_ms"] = rebuild_s["chord"] * 1e3
        out["core.hieras.rebuild_ms"] = rebuild_s["hieras"] * 1e3
        out["core.hieras.publish_skips"] = float(bundle.hieras.publish_skips - skips0)
    checks = {
        "probe_rebuild_equals_spliced": same,
        "probe_zero_full_rebuilds": out["dht.chord.full_rebuilds"] == 0.0
        and out["core.hieras.full_rebuilds"] == 0.0,
    }
    return out, checks


def probe_metrics(dep: Deployment, tracer: Tracer, p: dict[str, int]) -> Probe:
    """What attaching a span recorder costs, against both untraced bases."""
    lanes = min(p["traced_lanes"], len(dep.trace))
    src, keys = dep.trace.sources[:lanes], dep.trace.keys[:lanes]
    nets = networks(dep.bundle)
    registry = MetricsRegistry()
    recorder = SpanRecorder(registry)
    out: dict[str, float] = {}
    traced_s = scalar_s = batch_s = replay_s = 0.0
    hops = 0
    with tracer.span("probe.metrics", lanes=lanes):
        for stack, net in nets:
            scalar_s += tracer.call(
                f"engine.{stack}.scalar_batch_route",
                lambda net=net: batch_route(net, src, keys, engine="scalar"), lanes=lanes,
            )[1]
            batch_s += tracer.call(
                f"engine.{stack}.batch_route", batch_route, net, src, keys, lanes=lanes
            )[1]
            with_paths, dt = tracer.call(
                f"engine.{stack}.batch_route",
                lambda net=net: batch_route(net, src, keys, paths=True), lanes=lanes, paths=True,
            )
            replay_s += dt
            hops += int(with_paths.hops.sum())
            net.enable_tracing(recorder)
            try:
                dt = tracer.call(
                    f"metrics.{stack}.traced_batch_route", batch_route, net, src, keys, lanes=lanes
                )[1]
                traced_s += dt
                out[f"metrics.{stack}.traced_lookups_per_s"] = lanes / dt
                replay_s += tracer.call(
                    f"metrics.{stack}.replay_spans",
                    lambda net=net, r=with_paths, stack=stack: replay_spans(net, r, label=stack),
                    lanes=lanes,
                )[1]
            finally:
                net.disable_tracing()
    # Ratios of rates, each with its base: untraced base / traced.
    out["metrics.base.scalar_lookups_per_s"] = 2 * lanes / scalar_s
    out["metrics.base.batch_lookups_per_s"] = 2 * lanes / batch_s
    out["metrics.span_overhead_ratio"] = traced_s / scalar_s
    out["metrics.batch_cliff_ratio"] = traced_s / batch_s
    out["metrics.replay_spans_lookups_per_s"] = 2 * lanes / replay_s
    spans = sum(registry.counters[f"{stack}.lookups"].value for stack, _ in nets)
    span_hops = sum(registry.counters[f"{stack}.total_hops"].value for stack, _ in nets)
    out["metrics.spans_recorded"] = float(spans)
    # Each lane was recorded twice per stack: once routed, once replayed.
    checks = {
        "probe_spans_equal_lookups": spans == 4 * lanes,
        "probe_span_hops_equal_batch": span_hops == 2 * hops,
    }
    return out, checks


def probe_serve(dep: Deployment, tracer: Tracer, p: dict[str, Any], seed: int) -> Probe:
    """One steady HIERAS cell, then its puts and gets replayed directly
    so the serve loop's own share is what remains."""
    bundle = dep.bundle
    net = bundle.hieras
    out: dict[str, float] = {}
    with tracer.span("probe.serve"):
        p = {**p, "duration_ms": p["probe_duration_ms"], "streams": 1}
        cells, mix, out["loadgen.generate_s"] = serve_inputs(len(bundle.node_ids), p, seed, tracer)
        cell: Cell = next(c for c in cells if c.stack == "hieras" and not c.churn)
        result, out["serve.run_s"], out["replication.seed_s"] = run_cell(net, cell, mix, tracer)
        _, out["serve.slo_report_s"] = tracer.call(
            "loadgen.slo_report",
            lambda: SLOReport.from_result(
                result, offered_per_s=p["rate_per_s"], duration_ms=p["duration_ms"]
            ).as_dict(),
        )
        counters = result.registry.counters
        out["serve.mean_batch"] = (
            counters["serve.batched_lookups"].value / counters["serve.batches"].value
        )

        store = seeded_store(net, mix)
        puts = [r for r in cell.requests if r.op == "put"]
        gets = [r for r in cell.requests if r.op == "get"]
        puts_s = sum(
            tracer.call("replication.put", store.put, r.source, r.name, r.value)[1] for r in puts
        )
        sample = gets[: p["store_gets"]]
        gets_s = sum(tracer.call("replication.get", store.get, r.source, r.name)[1] for r in sample)
        out["replication.put_us"] = puts_s / len(puts) * 1e6
        out["replication.get_us"] = gets_s / len(sample) * 1e6
        sources = np.asarray([r.source for r in gets], dtype=np.int64)
        keys = np.asarray([net.space.hash_key(r.name) for r in gets], dtype=np.uint64)
        routed_s = sum(
            tracer.call(
                "engine.hieras.batch_route", batch_route, net,
                sources[a : a + 32], keys[a : a + 32], lanes=len(sources[a : a + 32]),
            )[1]
            for a in range(0, len(gets), 32)
        )
        out["serve.self_s"] = out["serve.run_s"] - puts_s - routed_s
    served = result.counts.get("ok", 0)
    return out, {"probe_serve_all_served": served == len(cell.requests)}
