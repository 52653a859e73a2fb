"""Replay one compiled scenario against one stack and measure it.

The runner owns the scenario clock.  Time advances in probe-interval
ticks; each tick, in order:

1. the fault clock advances (:meth:`ReplicatedStore.advance_to` —
   injector crashes/revives fire, hint queues replay);
2. due membership waves apply (graceful leaves, stabilize purges,
   join/revive waves, rebalance passes), filtered against ground truth
   so a peer that rejoined early is not purged by a stale wave;
3. the compiled client requests that arrived since the last tick
   execute against the replicated store, each from the first live
   peer at or after its source;
4. a probe cohort routes ``n_probes`` seeded lookups through
   ``route_lossy`` — the availability sample — and each success is
   priced against the same lookup on a pristine fault-free twin of the
   network (built from the identical config), giving route stretch.
   With ``n_probes=0`` there is no cohort and no twin.

Everything is a pure function of ``(config, scenario, stack,
params)``: networks are built fresh per cell, all randomness flows
through named :class:`~repro.util.rng.RngFactory` streams, and the
returned metrics are byte-reproducible across runs.  One campaign
feeds two benches: ``bench scenarios`` sweeps the suite, ``bench
durability`` the two-wave crash over replication policies.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.faults.injector import FaultInjector
from repro.replication.store import ReplicatedStore
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import CompiledScenario, ScenarioParams
from repro.scenarios.timeline import recovery_time_ms, series_summary
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = ["run_scenario_cell"]


def _apply_wave(net, store: ReplicatedStore, injector: FaultInjector, wave) -> None:
    """Apply one membership wave, filtered against current ground truth."""
    if wave.kind == "rebalance":
        store.rebalance()
        return
    if wave.kind == "leave_graceful":
        live = [p for p in wave.peers if net.is_alive(p)]
        if live:
            net.remove_peers(live, graceful=True)
    elif wave.kind == "remove":
        live = [p for p in wave.peers if net.is_alive(p)]
        if live:
            net.remove_peers(live)
    elif wave.kind == "stabilize":
        # Purge only peers still crashed: one that rejoined before the
        # stabilization round reached it must not be evicted.
        dead = [p for p in wave.peers if net.is_alive(p) and injector.state.is_dead(p)]
        if dead:
            net.remove_peers(dead)
    elif wave.kind == "revive":
        offline = [p for p in wave.peers if not net.is_alive(p)]
        if offline:
            net.revive_peers(offline)
    elif wave.kind == "rebind_revive":
        pairs = [
            (p, list(names))
            for p, names in zip(wave.peers, wave.ring_names)
            if not net.is_alive(p)
        ]
        if pairs:
            peers = [p for p, _ in pairs]
            if hasattr(net, "rebind_peers"):
                net.rebind_peers(peers, [names for _, names in pairs])
            net.revive_peers(peers)
    else:  # pragma: no cover - spec validation guarantees known kinds
        raise ValueError(f"unknown wave kind {wave.kind!r}")


def run_scenario_cell(
    config: SimConfig,
    scenario: str,
    stack: str,
    params: ScenarioParams,
) -> dict[str, object]:
    """One (scenario, stack) cell; returns deterministic metrics.

    ``stack`` selects ``"chord"`` or ``"hieras"``.  The campaign is
    compiled against a pristine bundle of ``config`` (so both stacks
    replay identical peer sets), then replayed tick by tick as the
    module docstring describes.  Besides the derived rates, the cell
    carries the store's own counters (:meth:`ReplicationStats.as_dict`)
    and the sums they lack: ``put_hops``, ``put_latency_ms``,
    ``read_latency_ms`` and ``stale_values`` (reads that returned an
    older version than the latest published).
    """
    require(scenario in SCENARIOS, f"unknown scenario {scenario!r}")
    require(stack in ("chord", "hieras"), f"unknown stack {stack!r}")
    bundle = build_bundle(config)
    compiled: CompiledScenario = SCENARIOS[scenario](bundle, params)
    net = bundle.chord if stack == "chord" else bundle.hieras
    # A second build of the same config stays pristine and prices the
    # probes' fault-free paths (route stretch); a probe-free cell
    # builds none.
    twin = build_bundle(config) if params.n_probes else None
    base_net = None if twin is None else twin.chord if stack == "chord" else twin.hieras
    universe = config.n_peers

    injector = FaultInjector(compiled.plan, universe)
    store = ReplicatedStore(net, params.policy, injector=injector)
    net.attach_store(store)
    if compiled.initial_offline:
        net.remove_peers(list(compiled.initial_offline))
    # Seed the catalogue on the initial membership so reads have data
    # from t=0; versions stamped here are the durability ground truth.
    for name in compiled.seeded:
        store.seed_key(name, f"seed-{name}")

    n_ticks = int(compiled.duration_ms // params.probe_interval_ms)
    rngs = RngFactory(params.seed)
    probe_src = rngs.get(f"scenario-{scenario}-probe-src").integers(
        0, universe, size=(n_ticks, params.n_probes)
    )
    probe_key = rngs.get(f"scenario-{scenario}-probe-key").integers(
        0, bundle.space.size, size=(n_ticks, params.n_probes), dtype=np.uint64
    )

    def resolve_live(peer: int, op: object) -> int:
        """The first live, non-crashed peer at or after ``peer``; one lap at most."""
        p = int(peer) % universe
        for _ in range(universe):
            if net.is_alive(p) and not injector.state.is_dead(p):
                return p
            p = (p + 1) % universe
        raise ValueError(f"no live peer to send {op} from: every peer is down")

    times: list[float] = []
    availability: list[float] = []
    stretch_timeline: list[float] = []
    gets_total_tl: list[float] = []
    gets_ok_tl: list[float] = []
    stretch_sum = 0.0
    stretch_max = 0.0
    stretch_n = 0
    put_hops = stale_values = 0
    put_latency = read_latency = 0.0
    wave_i = 0
    req_i = 0
    requests = compiled.requests
    for tick in range(1, n_ticks + 1):
        t = tick * params.probe_interval_ms
        store.advance_to(t)
        while wave_i < len(compiled.waves) and compiled.waves[wave_i].time_ms <= t:
            _apply_wave(net, store, injector, compiled.waves[wave_i])
            wave_i += 1
        tick_gets = tick_gets_ok = 0
        while req_i < len(requests) and requests[req_i].at_ms <= t:
            req = requests[req_i]
            req_i += 1
            src = resolve_live(req.source, req)
            if req.op == "get":
                got = store.get(src, req.name)
                tick_gets += 1
                read_latency += got.total_latency_ms
                if got.success and not got.lost:
                    tick_gets_ok += 1
                    if got.value is not None and got.version < store.version_of(req.name):
                        stale_values += 1
            else:
                put = store.put(src, req.name, req.value)
                put_hops += put.hops
                put_latency += put.total_latency_ms
        gets_total_tl.append(float(tick_gets))
        gets_ok_tl.append(float(tick_gets_ok))
        if base_net is None:
            continue
        ok = 0
        tick_stretch_sum = 0.0
        tick_stretch_n = 0
        for j in range(params.n_probes):
            src = resolve_live(int(probe_src[tick - 1, j]), f"probe {j} of tick {tick}")
            key = int(probe_key[tick - 1, j])
            result = net.route_lossy(src, key, injector=injector)
            if not result.success:
                continue
            ok += 1
            base = base_net.route(src, key)
            if base.latency_ms > 0.0:
                ratio = result.total_latency_ms / base.latency_ms
                tick_stretch_sum += ratio
                tick_stretch_n += 1
                stretch_sum += ratio
                stretch_n += 1
                if ratio > stretch_max:
                    stretch_max = ratio
        times.append(t)
        availability.append(ok / params.n_probes)
        stretch_timeline.append(
            tick_stretch_sum / tick_stretch_n if tick_stretch_n else -1.0
        )

    audit = store.loss_audit()
    stats = store.stats
    summary = series_summary(availability)
    recovery_ms, recovered = recovery_time_ms(
        times,
        availability,
        fault_start_ms=compiled.fault_start_ms,
        threshold=params.recovery_threshold,
    )
    gets_ok = stats.get_successes - stats.lost_reads
    return {
        **stats.as_dict(),
        "scenario": scenario,
        "stack": stack,
        "n_peers": float(universe),
        "initial_live": float(universe - len(compiled.initial_offline)),
        "ticks": float(n_ticks),
        "probes_per_tick": float(params.n_probes),
        "availability": availability,
        "availability_mean": summary["mean"],
        "availability_min": summary["min"],
        "availability_final": summary["final"],
        "recovery_ms": recovery_ms,
        "recovered": float(recovered),
        "stretch_timeline": stretch_timeline,
        "stretch_mean": stretch_sum / stretch_n if stretch_n else -1.0,
        "stretch_max": stretch_max,
        "stretch_samples": float(stretch_n),
        "gets_total_timeline": gets_total_tl,
        "gets_ok_timeline": gets_ok_tl,
        "put_success_rate": stats.put_successes / stats.puts if stats.puts else 1.0,
        "get_success_rate": gets_ok / stats.gets if stats.gets else 1.0,
        "lost_get_rate": stats.lost_reads / stats.gets if stats.gets else 0.0,
        "put_hops": float(put_hops),
        "put_latency_ms": put_latency,
        "read_latency_ms": read_latency,
        "stale_values": float(stale_values),
        "crashed_final": float(int(injector.state.dead.sum())),
        "live_final": float(net.n_peers),
        "loss_probability": audit["loss_probability"],
        "stale_probability": audit["stale_probability"],
        "keys": audit["keys"],
        "lost": audit["lost"],
        "intact": audit["intact"],
        "notes": dict(compiled.notes),
    }
