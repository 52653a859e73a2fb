"""The five workloads: what each sets up, times, and checks.

Every workload builds its deployment through :func:`perfbench.deploy.deploy`
and then repeats a fixed unit of work — a pass over the trace, a window
of churn cycles, a round of serve cells — until the run's seconds are
spent.  Every call into the library is one timing sample, kept short so
that a run holds many, and a rate is the unit's work over the *fast
decile* (:func:`perfbench.tracing.fast`) of each call in it: neighbours
on this shared box slow a share of the calls for seconds to minutes, and
the fast decile of many short calls stays put where a median moves
with every slow spell.  Each timing's p50 and tail are reported beside
the rate.  Every unit must reproduce the outputs of the first.
"""

from __future__ import annotations

import time
from itertools import chain
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine import batch_route
from repro.loadgen import WorkloadMix, catalog_names, constant_rate, generate
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import SpanRecorder
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.serve import DHTService, Request, ServeResult
from repro.util.rng import RngFactory

from perfbench.deploy import Deployment, deploy, networks, oracle_owners, route_pass
from perfbench.spec import CHUNK, LAYER_OF
from perfbench.tracing import Tracer, fast, timing_summary


@dataclass
class Measurement:
    """What the timed part of a workload reports."""

    #: End-to-end host metrics measured here (set-up time and peak RSS
    #: are the harness's).
    host: dict[str, float] = field(default_factory=dict)
    #: metric -> p50 / tail / sample count of the calls behind it.
    timings: dict[str, dict[str, Any]] = field(default_factory=dict)
    sim: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


class Workload:
    """A named set of inputs and the loop that times them."""

    name = ""
    #: Set-ups per run (their median is ``setup_s``).
    setup_repeats = 5
    full: dict[str, Any] = {}
    smoke: dict[str, Any] = {}

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.p = self.smoke if smoke else self.full

    def setup(self, tracer: Tracer) -> Deployment:
        p = self.p
        return deploy(
            n_peers=p["n_peers"],
            streaming=p.get("streaming", False),
            lookups=p["lookups"],
            chunk=p["chunk"],
            seed=self.seed,
            tracer=tracer,
        )

    def measure(self, dep: Deployment, seconds: float, tracer: Tracer) -> Measurement:
        raise NotImplementedError


def _same_routes(a: Any, b: Any, start: int = 0) -> bool:
    """``a`` equals the lanes of ``b`` from ``start`` on, bit for bit."""
    lanes = slice(start, start + len(a.owner))
    return bool(
        np.array_equal(a.owner, b.owner[lanes])
        and np.array_equal(a.hops, b.hops[lanes])
        and np.array_equal(a.latency_ms, b.latency_ms[lanes])
    )


def batch_equals_scalar(dep: Deployment, lanes: int) -> bool:
    """Both engines, both stacks, bit-equal on a probe of the trace."""
    src, keys = dep.trace.sources[:lanes], dep.trace.keys[:lanes]
    return all(
        _same_routes(batch_route(net, src, keys), batch_route(net, src, keys, engine="scalar"))
        for _, net in networks(dep.bundle)
    )


# ----------------------------------------------------------------------
# route_small / route_large: streamed lookups through the batch engine
# ----------------------------------------------------------------------
class RouteWorkload(Workload):
    def measure(self, dep: Deployment, seconds: float, tracer: Tracer) -> Measurement:
        out = Measurement()
        nets = networks(dep.bundle)
        chunk_s: dict[str, list[float]] = {stack: [] for stack, _ in nets}
        passes = 0
        reproduced = True
        deadline = time.perf_counter() + seconds
        while True:
            with tracer.span("run.pass"):
                for stack, net in nets:
                    done = route_pass(
                        net, dep.trace, dep.chunk, tracer, f"engine.{stack}.stream_chunk"
                    )
                    reproduced &= done.signature() == dep.fill[stack].signature()
                    chunk_s[stack] += done.chunk_s
            passes += 1
            out.attempted += 2 * len(dep.trace)
            if time.perf_counter() >= deadline:
                break
        # One chunk through each stack, at each stack's fast chunk time.
        out.host["lookups_per_s"] = 2 * dep.chunk / sum(fast(v) for v in chunk_s.values())
        out.timings["lookups_per_s"] = timing_summary(
            chain.from_iterable(chunk_s.values()), f"ms per {dep.chunk}-lane chunk"
        )
        out.timings["lookups_per_s"]["passes"] = passes
        out.checks["passes_reproduce_fill"] = reproduced
        out.checks["batch_equals_scalar"] = batch_equals_scalar(dep, self.p["probe"])
        return out


class RouteSmall(RouteWorkload):
    name = "route_small"
    full = {"n_peers": 4096, "lookups": 4 * CHUNK, "chunk": CHUNK, "probe": 2000}
    smoke = {"n_peers": 512, "lookups": 4096, "chunk": 1024, "probe": 200}


class RouteLarge(RouteWorkload):
    name = "route_large"
    # One set-up: the cold fill of 320 stub blocks is ~13 s of it.
    setup_repeats = 1
    # Streamed in 16 384-lane calls: at 65 536 a call is ~300 ms, too
    # long to ever dodge a slow spell of the host (ten seeds spread by
    # 7.5 % against 4.8 % in interleaved runs).  HIERAS pays ~8 % for
    # the narrower call (a fixed cost per ring cohort), Chord ~2 %.
    full = {
        "n_peers": 131_072, "streaming": True, "lookups": 2 * CHUNK, "chunk": CHUNK // 4,
        "probe": 2000,
    }
    smoke = {"n_peers": 512, "streaming": True, "lookups": 4096, "chunk": 1024, "probe": 200}


# ----------------------------------------------------------------------
# route_traced: the same entry point with a span recorder attached
# ----------------------------------------------------------------------
class RouteTraced(Workload):
    name = "route_traced"
    # A pass is traced_lanes lookups per stack in calls of call_lanes
    # (~35 ms each: the scalar path has no per-call cost to amortise).
    full = {
        "n_peers": 4096, "lookups": CHUNK, "chunk": CHUNK, "traced_lanes": 4096,
        "call_lanes": 256,
    }
    smoke = {
        "n_peers": 512, "lookups": 2048, "chunk": 1024, "traced_lanes": 256, "call_lanes": 64,
    }

    def measure(self, dep: Deployment, seconds: float, tracer: Tracer) -> Measurement:
        out = Measurement()
        lanes, width = self.p["traced_lanes"], self.p["call_lanes"]
        src, keys = dep.trace.sources[:lanes], dep.trace.keys[:lanes]
        nets = networks(dep.bundle)
        untraced = {stack: batch_route(net, src, keys) for stack, net in nets}
        registry = MetricsRegistry()
        recorder = SpanRecorder(registry)
        call_s: dict[str, list[float]] = {stack: [] for stack, _ in nets}
        passes = 0
        same = True
        for _, net in nets:
            net.enable_tracing(recorder)
        try:
            deadline = time.perf_counter() + seconds
            while True:
                with tracer.span("run.pass"):
                    for stack, net in nets:
                        for a in range(0, lanes, width):
                            routed, dt = tracer.call(
                                f"metrics.{stack}.traced_batch_route",
                                batch_route, net, src[a : a + width], keys[a : a + width],
                                lanes=width,
                            )
                            same &= _same_routes(routed, untraced[stack], a)
                            call_s[stack].append(dt)
                passes += 1
                out.attempted += 2 * lanes
                if time.perf_counter() >= deadline:
                    break
        finally:
            for _, net in nets:
                net.disable_tracing()
        out.host["lookups_per_s"] = 2 * width / sum(fast(v) for v in call_s.values())
        out.timings["lookups_per_s"] = timing_summary(
            chain.from_iterable(call_s.values()), f"ms per {width}-lane call"
        )
        out.timings["lookups_per_s"]["passes"] = passes
        counters = registry.counters
        out.sim["metrics.spans_per_pass"] = float(
            sum(counters[f"{stack}.lookups"].value for stack, _ in nets) // passes
        )
        out.checks["traced_equals_batch"] = same
        out.checks["spans_recorded_equal_lookups"] = all(
            counters[f"{stack}.lookups"].value == passes * lanes for stack, _ in nets
        )
        out.checks["span_mean_hops_equal_batch"] = all(
            counters[f"{stack}.total_hops"].value == passes * int(untraced[stack].hops.sum())
            for stack, _ in nets
        )
        return out


# ----------------------------------------------------------------------
# churn_waves: membership writes beside lookups
# ----------------------------------------------------------------------
def ring_arrays(chord: Any, hieras: Any) -> dict[str, Any]:
    """Every ring array of both stacks, by public accessor."""
    arrays = {
        "chord": (chord.ring.ids, chord.ring.peers),
        "global": (hieras.global_ring.ids, hieras.global_ring.peers),
    }
    for layer in range(2, hieras.depth + 1):
        for ring_name, ring in hieras.rings_at_layer(layer).items():
            arrays[f"{layer}/{ring_name}"] = (ring.ids, ring.peers)
    return arrays


def rebuild_matches_splice(bundle: Any, tracer: Tracer) -> tuple[bool, dict[str, float]]:
    """Force a full rebuild of both stacks; the spliced arrays held
    before it must equal the rebuilt ones.  Returns rebuild seconds."""
    before = ring_arrays(bundle.chord, bundle.hieras)
    seconds = {
        stack: tracer.call(f"{LAYER_OF[stack]}.rebuild", net.rebuild)[1]
        for stack, net in networks(bundle)
    }
    after = ring_arrays(bundle.chord, bundle.hieras)
    same = before.keys() == after.keys() and all(
        np.array_equal(before[k][0], after[k][0]) and np.array_equal(before[k][1], after[k][1])
        for k in before
    )
    return same, seconds


@dataclass
class Cycle:
    """The inputs of one churn cycle (the same for both stacks)."""

    wave: list[int]
    #: (sources, keys) routed after the wave left, then after it came back.
    halves: list[tuple[np.ndarray, np.ndarray]]
    #: Ids that join and then leave gracefully (join cycles only), and
    #: the HIERAS ring names they join under.
    fresh: list[int]
    names: list[list[str]]



class ChurnWaves(Workload):
    name = "churn_waves"
    # Three set-ups: the eager latency build is ~4 s of each.
    setup_repeats = 3
    full = {
        "n_peers": 32_768, "lookups": CHUNK, "chunk": CHUNK, "wave": 1024,
        "cycle_lookups": 2048, "join_every": 10, "join_size": 256, "min_windows": 2,
    }
    smoke = {
        "n_peers": 512, "lookups": 2048, "chunk": 1024, "wave": 32,
        "cycle_lookups": 128, "join_every": 4, "join_size": 8, "min_windows": 2,
    }

    def _cycle(self, rng: np.random.Generator, bundle: Any, *, join: bool) -> Cycle:
        p = self.p
        n, half, size = p["n_peers"], p["n_peers"] // 2, bundle.space.size
        # Waves leave from the upper half of the peers and lookups
        # start in the lower, so no lookup's source is ever gone.
        wave = (half + rng.choice(n - half, size=p["wave"], replace=False)).tolist()
        halves = [
            (
                rng.integers(0, half, size=p["cycle_lookups"], dtype=np.int64),
                rng.integers(0, size, size=p["cycle_lookups"], dtype=np.uint64),
            )
            for _ in range(2)
        ]
        fresh: list[int] = []
        names: list[list[str]] = []
        if join:
            ids = np.unique(rng.integers(0, size, size=p["join_size"], dtype=np.uint64))
            fresh = ids[~np.isin(ids, bundle.node_ids)].tolist()
            hieras = bundle.hieras
            names = [
                [hieras.ring_name_of(q, layer) for layer in range(2, hieras.depth + 1)]
                for q in rng.integers(0, n, size=len(fresh)).tolist()
            ]
        return Cycle(wave, halves, fresh, names)

    @staticmethod
    def _run_cycle(
        stack: str, net: Any, cycle: Cycle, tracer: Tracer,
        call_s: dict[tuple[str, str], list[float]],
    ) -> list[Any]:
        """One cycle on one stack: wave out, lookups, wave back,
        lookups, and on a join cycle fresh peers in and gracefully out.
        Every call's seconds land in ``call_s[stack, call]``."""

        def timed(name: str, call: str, fn: Any, **attrs: Any) -> Any:
            result, dt = tracer.call(name, fn, **attrs)
            call_s.setdefault((stack, call), []).append(dt)
            return result

        routed = []
        for op, (src, keys) in zip(("remove_peers", "revive_peers"), cycle.halves):
            timed(
                f"{LAYER_OF[stack]}.{op}", op, lambda op=op: getattr(net, op)(cycle.wave),
                peers=len(cycle.wave),
            )
            routed.append(
                timed(
                    f"engine.{stack}.batch_route", f"lookups_after_{op}",
                    lambda src=src, keys=keys: batch_route(net, src, keys), lanes=len(src),
                )
            )
        if cycle.fresh:
            args = (cycle.fresh, cycle.names) if stack == "hieras" else (cycle.fresh,)
            added = timed(
                f"{LAYER_OF[stack]}.add_peers", "add_peers", lambda: net.add_peers(*args),
                peers=len(cycle.fresh),
            )
            timed(
                f"{LAYER_OF[stack]}.remove_peers.graceful", "remove_peers.graceful",
                lambda: net.remove_peers(added, graceful=True), peers=len(added),
            )
        return routed

    def measure(self, dep: Deployment, seconds: float, tracer: Tracer) -> Measurement:
        out = Measurement()
        p = self.p
        bundle = dep.bundle
        nets = networks(bundle)
        rng = RngFactory(self.seed).get("perfbench-churn")
        rebuilds_before = {stack: net.rebuild_count for stack, net in nets}
        live = np.ones(p["n_peers"], dtype=bool)

        call_s: dict[tuple[str, str], list[float]] = {}
        joined = 0
        owners_ok = stacks_agree = True
        # Sim statistics come from the first windows only: how many
        # windows fit in the run's seconds is the host's business.
        hop_sum = {stack: 0 for stack, _ in nets}
        latency_sum = {stack: 0.0 for stack, _ in nets}
        sim_lookups = 0

        deadline = time.perf_counter() + seconds
        windows = 0
        while True:
            counted = windows < p["min_windows"]
            with tracer.span("run.window"):
                for i in range(p["join_every"]):
                    cycle = self._cycle(rng, bundle, join=i == p["join_every"] - 1)
                    routed = {
                        stack: self._run_cycle(stack, net, cycle, tracer, call_s)
                        for stack, net in nets
                    }
                    joined += len(cycle.fresh)
                    out.attempted += 4 * (
                        p["cycle_lookups"] + len(cycle.wave) + len(cycle.fresh)
                    )
                    stacks_agree &= all(
                        np.array_equal(c.owner, h.owner)
                        for c, h in zip(routed["chord"], routed["hieras"])
                    )
                    if not counted:
                        continue
                    sim_lookups += 2 * p["cycle_lookups"]
                    for stack, results in routed.items():
                        hop_sum[stack] += sum(int(r.hops.sum()) for r in results)
                        latency_sum[stack] += sum(float(r.latency_ms.sum()) for r in results)
                    for gone, result, (_, keys) in zip((True, False), routed["chord"], cycle.halves):
                        live[cycle.wave] = not gone
                        owners_ok &= np.array_equal(
                            result.owner, oracle_owners(bundle.node_ids, live, keys)
                        )
            windows += 1
            if windows >= p["min_windows"] and time.perf_counter() >= deadline:
                break

        # One cycle on both stacks: every call at its fast time, the
        # join calls at their share of one cycle in join_every.
        share = {"add_peers": 1 / p["join_every"], "remove_peers.graceful": 1 / p["join_every"]}
        lookup_calls = {k: v for k, v in call_s.items() if k[1].startswith("lookups")}
        member_calls = {k: v for k, v in call_s.items() if k not in lookup_calls}
        member_s = sum(fast(v) * share.get(call, 1.0) for (_, call), v in member_calls.items())
        lookup_s = sum(fast(v) for v in lookup_calls.values())
        peers = 4 * (p["wave"] + joined / windows / p["join_every"])
        out.host["lookups_per_s"] = 4 * p["cycle_lookups"] / (lookup_s + member_s)
        out.host["membership_peers_per_s"] = peers / member_s
        out.timings["lookups_per_s"] = timing_summary(
            chain.from_iterable(lookup_calls.values()), f"ms per {p['cycle_lookups']}-lane call"
        )
        out.timings["membership_peers_per_s"] = timing_summary(
            chain.from_iterable(member_calls.values()), "ms per membership call"
        )
        out.timings["lookups_per_s"]["windows"] = windows
        out.sim["churn.chord.mean_hops"] = hop_sum["chord"] / sim_lookups
        out.sim["churn.hieras.mean_hops"] = hop_sum["hieras"] / sim_lookups
        out.sim["churn.latency_ratio"] = latency_sum["hieras"] / latency_sum["chord"]
        out.checks["owners_match_oracle_under_churn"] = owners_ok
        out.checks["stacks_agree_under_churn"] = stacks_agree
        out.checks["zero_full_rebuilds"] = all(
            net.rebuild_count == rebuilds_before[stack] for stack, net in nets
        )
        out.checks["rebuild_equals_spliced"] = rebuild_matches_splice(bundle, tracer)[0]
        return out


# ----------------------------------------------------------------------
# serve_mix: the request path, steady and churned
# ----------------------------------------------------------------------
@dataclass
class Cell:
    """One serve scenario: a stack, its requests, whether peers churn."""

    stack: str
    churn: bool
    #: Which of the independently drawn request streams this cell serves.
    stream: int
    requests: list[Request]
    #: Keys that were seeded before the run (every get of one must hit).
    seeded: frozenset[str]


def serve_inputs(
    n_peers: int, p: dict[str, Any], seed: int, tracer: Tracer
) -> tuple[list[Cell], WorkloadMix, float]:
    """Generate the cells' request streams (timed: set-up work): 2
    stacks × {steady, churned} × ``p["streams"]`` independent streams."""
    mix = WorkloadMix(read_fraction=0.75, catalog_size=p["catalog"])
    duration = p["duration_ms"]
    pool = np.arange(n_peers // 2, dtype=np.int64)

    def make() -> list[list[Request]]:
        streams = []
        for k in range(p["streams"]):
            arrivals = constant_rate(p["rate_per_s"], duration).arrival_times(1000 * seed + 2 * k)
            streams.append(generate(mix, arrivals, pool, seed=1000 * seed + 2 * k + 1))
        return streams

    streams, seconds = tracer.call("loadgen.generate", make)
    wave_rng = RngFactory(seed).get("perfbench-serve-wave")
    wave = tuple(
        sorted(
            (n_peers // 2 + wave_rng.choice(n_peers - n_peers // 2, size=max(1, n_peers // 10),
                                            replace=False)).tolist()
        )
    )

    def churned(steady: list[Request]) -> list[Request]:
        return sorted(
            [
                *steady,
                Request(op="leave", at_ms=0.3 * duration, peers=wave),
                Request(op="join", at_ms=0.7 * duration, peers=wave),
            ],
            key=lambda r: r.at_ms,
        )

    seeded = frozenset(catalog_names(mix))
    cells = [
        Cell(stack, churn, k, churned(steady) if churn else steady, seeded)
        for stack in ("chord", "hieras")
        for churn in (False, True)
        for k, steady in enumerate(streams)
    ]
    return cells, mix, seconds


def seeded_store(net: Any, mix: WorkloadMix) -> ReplicatedStore:
    """A fresh quorum store over ``net`` holding the whole catalogue."""
    store = ReplicatedStore(
        net, ReplicationPolicy(replicas=2, consistency="quorum", placement="successor")
    )
    for key_name in catalog_names(mix):
        store.seed_key(key_name, "v0")
    return store


def run_cell(
    net: Any, cell: Cell, mix: WorkloadMix, tracer: Tracer
) -> tuple[ServeResult, float, float]:
    """Serve one cell on a fresh seeded store; returns the result and
    the host seconds of ``DHTService.run`` and of seeding the store."""
    store, seed_s = tracer.call("replication.seed", seeded_store, net, mix)
    if cell.churn:
        net.attach_store(store)
    try:
        service = DHTService(net, store=store)
        result, run_s = tracer.call(
            "serve.run", service.run, cell.requests,
            stack=cell.stack, churn=cell.churn, requests=len(cell.requests),
        )
    finally:
        if cell.churn:
            net.detach_store(store)
    return result, run_s, seed_s


def cell_outcome(cell: Cell, result: ServeResult) -> tuple[tuple[Any, ...], bool, int, int]:
    """A cell's deterministic signature, whether every arrival is
    accounted for, how many requests were not served, and how many
    served gets of a seeded key came back empty."""
    counts = result.counts
    unserved = sum(counts.get(k, 0) for k in ("rejected", "deadline", "failed"))
    conserved = counts.get("ok", 0) + unserved == len(cell.requests)
    empty_gets = sum(
        1
        for c, r in zip(result.completions, cell.requests)
        if r.op == "get" and c.outcome == "ok" and r.name in cell.seeded and c.value is None
    )
    total = result.registry.histograms["serve.total_ms"]
    signature = (
        tuple(sorted(counts.items())), total.count, total.total, result.makespan_ms, empty_gets,
    )
    return signature, conserved, unserved, empty_gets


class ServeMix(Workload):
    name = "serve_mix"
    full = {
        "n_peers": 4096, "lookups": CHUNK, "chunk": CHUNK,
        # Five streams of 300 simulated ms rather than one of 1.5 s:
        # a cell is 50-90 ms of host time, short enough for some of a
        # run's calls to dodge a slow spell, and the five together keep
        # a seed's get/put mix from deciding the rate.
        "rate_per_s": 1200.0, "duration_ms": 300.0, "streams": 5, "catalog": 512,
    }
    smoke = {
        "n_peers": 512, "lookups": 2048, "chunk": 1024,
        "rate_per_s": 1200.0, "duration_ms": 200.0, "streams": 2, "catalog": 64,
    }

    def setup(self, tracer: Tracer) -> Deployment:
        dep = super().setup(tracer)
        with tracer.span("setup.serve_inputs"):
            cells, mix, generate_s = serve_inputs(self.p["n_peers"], self.p, self.seed, tracer)
        dep.extra.update(cells=cells, mix=mix)
        dep.stage_s["loadgen.generate_s"] = generate_s
        return dep

    def measure(self, dep: Deployment, seconds: float, tracer: Tracer) -> Measurement:
        out = Measurement()
        cells: list[Cell] = dep.extra["cells"]
        mix: WorkloadMix = dep.extra["mix"]
        first: dict[int, tuple[Any, ...]] = {}
        run_s: list[list[float]] = [[] for _ in cells]
        outputs_ok = reproduced = True
        route_ms: dict[str, float] = {}
        rounds = 0
        deadline = time.perf_counter() + seconds
        while True:
            with tracer.span("run.round"):
                for i, cell in enumerate(cells):
                    result, seconds_in_run, _ = run_cell(
                        getattr(dep.bundle, cell.stack), cell, mix, tracer
                    )
                    run_s[i].append(seconds_in_run)
                    signature, conserved, unserved, empty_gets = cell_outcome(cell, result)
                    # A peer that left silently rejoins with an empty
                    # disk, so only the steady cells must hit every get;
                    # the churned cells' misses are a sim statistic.
                    outputs_ok &= conserved and (cell.churn or empty_gets == 0)
                    out.failed += unserved
                    reproduced &= first.setdefault(i, signature) == signature
                    # Sim statistics: the first round's first stream of each kind.
                    if rounds or cell.stream:
                        continue
                    histograms = result.registry.histograms
                    if cell.churn:
                        out.sim[f"serve.{cell.stack}.churn_empty_gets"] = float(empty_gets)
                    else:
                        route_ms[cell.stack] = histograms["serve.route_ms"].mean
                    if cell.stack == "hieras" and not cell.churn:
                        out.sim["sim_p99_ms"] = histograms["serve.total_ms"].quantile(0.99)
                        out.sim["serve.mean_batch"] = histograms["serve.batch_size"].mean
            rounds += 1
            out.attempted += sum(len(cell.requests) for cell in cells)
            if time.perf_counter() >= deadline:
                break
        # One round of the cells, each at its fast run time.
        out.host["requests_per_s"] = sum(len(cell.requests) for cell in cells) / sum(
            fast(v) for v in run_s
        )
        out.timings["requests_per_s"] = timing_summary(
            chain.from_iterable(run_s), "ms per served cell"
        )
        out.timings["requests_per_s"]["rounds"] = rounds
        out.sim["serve.route_latency_ratio"] = route_ms["hieras"] / route_ms["chord"]
        out.checks["arrivals_conserved_and_gets_hit"] = outputs_ok
        out.checks["rounds_reproduce_first"] = reproduced
        out.checks["network_fully_revived"] = all(
            net.n_peers == self.p["n_peers"] for _, net in networks(dep.bundle)
        )
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (RouteSmall, RouteLarge, RouteTraced, ChurnWaves, ServeMix)
}
