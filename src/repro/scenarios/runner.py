"""Replay one compiled scenario against one stack and measure it.

The campaign's requests — client gets and puts, membership waves,
rebalance passes — are served by :class:`~repro.serve.DHTService` over
a :class:`~repro.replication.store.ReplicatedStore` and its fault
injector, each at its own arrival instant: the pool has a worker per
request, so nothing queues, and a campaign measures routing and data,
not the front end's capacity (``bench saturation`` measures that).  A
get or put whose source is down is sent from the next servable peer
(the service's one rule, DESIGN.md §12).

The runner keeps the timeline.  Every ``probe_interval_ms`` the
service stops at a tick — the dispatches up to it resolved, the fault
events due by it fired — and a probe cohort routes ``n_probes`` seeded
lookups through ``route_lossy`` from the service's sender table: the
availability sample.  Each success is priced against the same lookup
on a pristine fault-free twin of the network (built from the identical
config), giving route stretch.  With ``n_probes=0`` there is no cohort
and no twin; the ticks still fire every fault event up to the last.

Everything is a pure function of ``(config, scenario, stack,
params)``: networks are built fresh per cell, all randomness flows
through named :class:`~repro.util.rng.RngFactory` streams, and the
returned metrics are byte-reproducible across runs.  One campaign
feeds two benches: ``bench scenarios`` sweeps the suite, ``bench
durability`` the two-wave crash over replication policies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.faults.injector import FaultInjector
from repro.replication.store import ReplicatedStore
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import CompiledScenario, ScenarioParams
from repro.scenarios.timeline import recovery_time_ms, series_summary
from repro.serve import DHTService, ServiceConfig
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = ["run_scenario_cell"]

#: A cell has "recovered" once probe availability stays at or above
#: this rate for the rest of the run.
RECOVERY_THRESHOLD = 0.9


def run_scenario_cell(
    config: SimConfig,
    scenario: str,
    stack: str,
    params: ScenarioParams,
) -> dict[str, object]:
    """One (scenario, stack) cell; returns deterministic metrics.

    ``stack`` selects ``"chord"`` or ``"hieras"``.  The campaign is
    compiled against a pristine bundle of ``config`` (so both stacks
    replay identical peer sets), then served as the module docstring
    describes.  Besides the derived rates, the cell carries the store's
    own counters (:meth:`ReplicationStats.as_dict`), the network time
    of every put and get (``put_latency_ms``, ``read_latency_ms``), and
    per tick the gets that arrived in it and those that came back with
    a value.
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

    interval = params.probe_interval_ms
    n_ticks = int(compiled.duration_ms // interval)
    rngs = RngFactory(params.seed)
    probe_src = rngs.get(f"scenario-{scenario}-probe-src").integers(
        0, universe, size=(n_ticks, params.n_probes)
    )
    probe_key = rngs.get(f"scenario-{scenario}-probe-key").integers(
        0, bundle.space.size, size=(n_ticks, params.n_probes), dtype=np.uint64
    )

    times: list[float] = []
    availability: list[float] = []
    stretch_timeline: list[float] = []
    stretch: list[float] = []

    def probe(t: float, senders: Sequence[int]) -> None:
        """One probe cohort at tick ``t``, each lookup from its source's sender."""
        if base_net is None:
            return
        tick = len(times)
        ok = 0
        ratios: list[float] = []
        for src, key in zip(probe_src[tick].tolist(), probe_key[tick].tolist()):
            src = senders[src]
            if src < 0:
                continue
            result = net.route_lossy(src, key, injector=injector)
            if not result.success:
                continue
            ok += 1
            base = base_net.route(src, key)
            if base.latency_ms > 0.0:
                ratios.append(result.total_latency_ms / base.latency_ms)
        times.append(t)
        availability.append(ok / params.n_probes)
        stretch_timeline.append(sum(ratios) / len(ratios) if ratios else -1.0)
        stretch.extend(ratios)

    requests = list(compiled.requests)
    service = DHTService(net, config=ServiceConfig(workers=max(1, len(requests))), store=store)
    served = service.run(
        requests, ticks=[tick * interval for tick in range(1, n_ticks + 1)], on_tick=probe
    )

    gets_total_tl = [0.0] * n_ticks
    gets_ok_tl = [0.0] * n_ticks
    put_latency = read_latency = 0.0
    for req, done in zip(requests, served.completions):
        if req.op == "put":
            put_latency += done.route_ms + done.fanout_ms
        elif req.op == "get":
            read_latency += done.route_ms + done.fanout_ms
            tick = max(math.ceil(req.at_ms / interval), 1) - 1
            if tick < n_ticks:
                gets_total_tl[tick] += 1.0
                gets_ok_tl[tick] += float(done.served and done.value is not None)

    audit = store.loss_audit()
    stats = store.stats
    summary = series_summary(availability)
    recovery_ms, recovered = recovery_time_ms(
        times,
        availability,
        fault_start_ms=compiled.fault_start_ms,
        threshold=RECOVERY_THRESHOLD,
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
        "stretch_mean": sum(stretch) / len(stretch) if stretch else -1.0,
        "stretch_max": max(stretch, default=0.0),
        "stretch_samples": float(len(stretch)),
        "gets_total_timeline": gets_total_tl,
        "gets_ok_timeline": gets_ok_tl,
        "put_success_rate": stats.put_successes / stats.puts if stats.puts else 1.0,
        "get_success_rate": gets_ok / stats.gets if stats.gets else 1.0,
        "lost_get_rate": stats.lost_reads / stats.gets if stats.gets else 0.0,
        "put_latency_ms": put_latency,
        "read_latency_ms": read_latency,
        "crashed_final": float(int(injector.state.dead.sum())),
        "live_final": float(net.n_peers),
        "loss_probability": audit["loss_probability"],
        "stale_probability": audit["stale_probability"],
        "keys": audit["keys"],
        "lost": audit["lost"],
        "intact": audit["intact"],
        "notes": dict(compiled.notes),
    }
