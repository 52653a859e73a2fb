"""The named scenario library: seven adversarial / realistic campaigns.

Each entry is a compiler ``(bundle, params) -> CompiledScenario``; the
:data:`SCENARIOS` registry maps names to compilers.  All member
resolution happens against the *pristine* bundle (full initial
membership), so the same campaign — the identical peer sets, times and
requests — replays against both the flat Chord baseline and HIERAS for
a head-to-head comparison.  Membership waves are
:class:`~repro.serve.request.Request` records the runner's service
serves beside the client load: an announced departure is a graceful
``leave``, a stabilize purge a silent ``leave`` of the peers the
campaign's own fault plan still has crashed when it fires, a rejoin a
``join`` (with ``ring_names`` when the joiners were binned blind), a
re-homing pass a ``rebalance``.

The suite (motivations in DESIGN.md's Scenarios section):

``graceful_leave`` / ``abrupt_crash``
    The same 25% of peers depart at the same instant — announced
    (handoff to successors, rings rebuilt atomically) vs silently
    killed (stale finger tables until a stabilize purge).  The pair
    isolates what *announcing* a departure is worth.
``regional_failure``
    The paper's adversarial case: HIERAS's topology-aware rings mean a
    regional outage kills an entire lowest-layer ring in one wave.
    The largest such ring is resolved from the pristine HIERAS overlay
    and crashed wholesale (via :meth:`FaultPlan.crash_ring`) — the
    identical peer set crashes under flat Chord for comparison.
``flash_join``
    A large held-out cohort joins in one wave under live load;
    ownership shifts away from the peers holding the data until a
    rebalance pass re-homes it.
``weibull_churn``
    Continuous heavy-tailed session churn (measurement-study peer
    behavior): joins, graceful leaves and silent failures interleave
    for the whole run, with stabilize purges trailing each failure.
``landmark_outage_rolling``
    Landmarks die one by one while held-out peers trickle back in;
    joiners measure blinded coordinates and land in the wrong
    low-layer rings (degraded binning, §2.3).  Flat Chord ignores
    landmarks entirely; the suite's claim bounds what the misbinning
    costs HIERAS at 0.05 route stretch over Chord.
``two_wave_crash``
    Two crash waves and a rejoin against a publish / update / read op
    stream: the durability bench's campaign, swept over replication
    policies rather than run in the suite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.experiments.runner import SimulationBundle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.loadgen.schedule import Schedule, constant_rate, flash_crowd
from repro.loadgen.workload import WorkloadMix, catalog_names, generate
from repro.scenarios.spec import CompiledScenario, ScenarioParams
from repro.serve.request import Request
from repro.util.rng import RngFactory
from repro.util.validation import require
from repro.workloads.churn import generate_churn

__all__ = ["SCENARIOS", "scenario_names"]

#: Share of the universe departing in the graceful/abrupt departure pair.
LEAVE_FRACTION = 0.25
#: Share of the universe held out and flash-joined later.
JOIN_FRACTION = 0.4


def _suite_campaign(
    bundle: SimulationBundle,
    params: ScenarioParams,
    name: str,
    plan: FaultPlan,
    waves: list[Request],
    notes: dict[str, Any],
    *,
    schedule: Schedule | None = None,
    initial_offline: tuple[int, ...] = (),
    fault_start_ms: float | None = None,
) -> CompiledScenario:
    """A suite campaign under the shared client load.

    The load is ``params``' Zipf read/write mix over a seeded ``sk-*``
    catalogue, arriving on ``schedule`` (default: constant
    ``rate_per_s``) from the initial membership, drawn from the
    ``scenario-<name>-arrivals`` / ``-ops`` streams.  ``waves`` merge
    in by time, each ahead of the client requests at its instant.
    """
    mix = WorkloadMix(
        read_fraction=params.read_fraction,
        catalog_size=params.catalog_size,
        name_prefix="sk",
    )
    rngs = RngFactory(params.seed)
    if schedule is None:
        schedule = constant_rate(params.rate_per_s, params.duration_ms)
    arrivals = schedule.arrival_times(rngs.get(f"scenario-{name}-arrivals"))
    pool = np.asarray(
        sorted(set(range(bundle.config.n_peers)) - set(initial_offline)), dtype=np.int64
    )
    client = generate(mix, arrivals, pool, rngs.get(f"scenario-{name}-ops"))
    return CompiledScenario(
        name=name,
        duration_ms=params.duration_ms,
        plan=plan,
        requests=tuple(sorted([*waves, *client], key=lambda r: r.at_ms)),
        seeded=tuple(catalog_names(mix)),
        initial_offline=initial_offline,
        fault_start_ms=params.fault_at_ms if fault_start_ms is None else fault_start_ms,
        notes=notes,
    )


def _departure_peers(bundle: SimulationBundle, params: ScenarioParams) -> list[int]:
    """The shared leave/crash cohort of the departure pair.

    Drawn from one stream keyed only by the scenario seed so the
    graceful and abrupt variants hit the *same* peers — the comparison
    is announcement vs silence, nothing else.
    """
    n = bundle.config.n_peers
    count = int(round(LEAVE_FRACTION * n))
    rng = RngFactory(params.seed).get("scenario-departure-peers")
    chosen = rng.choice(n, size=min(count, n - 1), replace=False)
    return sorted(int(p) for p in chosen)


def _purges(
    bundle: SimulationBundle, plan: FaultPlan, purges: list[tuple[float, tuple[int, ...]]]
) -> list[Request]:
    """Stabilize purges as silent leaves, resolved against ``plan``: each
    ``(at_ms, peers)`` keeps the peers the plan still has crashed at
    ``at_ms``, so a peer revived before its purge fires stays."""
    injector = FaultInjector(plan, bundle.config.n_peers)
    leaves = []
    for at_ms, peers in sorted(purges):
        injector.advance_to(at_ms)
        dead = tuple(p for p in peers if injector.state.is_dead(p))
        if dead:
            leaves.append(Request("leave", at_ms, peers=dead))
    return leaves


def compile_graceful_leave(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Announced mass departure: handoff first, one atomic rebuild."""
    peers = _departure_peers(bundle, params)
    waves = [Request("leave", params.fault_at_ms, peers=tuple(peers), graceful=True)]
    return _suite_campaign(
        bundle, params, "graceful_leave", FaultPlan(seed=params.seed), waves,
        {"departed": len(peers), "mode": "graceful"},
    )


def compile_abrupt_crash(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Silent mass failure: stale fingers until the stabilize purge."""
    peers = _departure_peers(bundle, params)
    plan = FaultPlan(seed=params.seed).crash_peers(
        at_ms=params.fault_at_ms, peers=peers
    )
    waves = _purges(bundle, plan, [(params.fault_at_ms + params.stabilize_delay_ms, tuple(peers))])
    return _suite_campaign(
        bundle, params, "abrupt_crash", plan, waves,
        {"departed": len(peers), "mode": "abrupt"},
    )


def compile_regional_failure(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Correlated regional outage: the largest lowest-layer ring dies.

    Ring membership is resolved from the pristine HIERAS overlay (ties
    broken by ring name), so the whole-ring loss is exercised by
    construction; the identical peers crash under flat Chord.
    """
    hieras = bundle.hieras
    rings = hieras.rings_at_layer(hieras.depth)
    name = max(sorted(rings), key=lambda r: (len(rings[r]), r))
    members = sorted(int(p) for p in rings[name].peers)
    plan = FaultPlan(seed=params.seed).crash_ring(
        at_ms=params.fault_at_ms, network=hieras, name=name
    )
    if params.loss_rate > 0.0:
        # The regional outage is correlated network damage, not just
        # dead hosts: survivors see a message-loss burst until the
        # stabilize purge repairs routing state.
        plan.loss_burst(
            at_ms=params.fault_at_ms,
            rate=params.loss_rate,
            duration_ms=params.stabilize_delay_ms,
        )
    waves = _purges(bundle, plan, [(params.fault_at_ms + params.stabilize_delay_ms, tuple(members))])
    return _suite_campaign(
        bundle, params, "regional_failure", plan, waves,
        {
            "ring_name": name,
            "ring_size": len(members),
            "ring_fraction": len(members) / bundle.config.n_peers,
            "loss_rate": params.loss_rate,
        },
    )


def compile_flash_join(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """A held-out cohort joins in one wave under a flash crowd.

    Ownership shifts to the joiners, who hold nothing until the
    trailing rebalance pass re-homes every key onto its current
    replica group — the data-availability dip in between is the
    scenario's signature.
    """
    n = bundle.config.n_peers
    held_out = tuple(range(n - int(round(JOIN_FRACTION * n)), n))
    rebalance_at = params.fault_at_ms + (params.duration_ms - params.fault_at_ms) / 2.0
    waves = [Request("join", params.fault_at_ms, peers=held_out), Request("rebalance", rebalance_at)]
    schedule = flash_crowd(
        params.rate_per_s,
        params.duration_ms,
        spike_at_ms=params.fault_at_ms,
        spike_duration_ms=4.0 * params.probe_interval_ms,
        spike_factor=4.0,
    )
    return _suite_campaign(
        bundle, params, "flash_join", FaultPlan(seed=params.seed), waves,
        {"joined": len(held_out), "rebalance_at_ms": rebalance_at},
        schedule=schedule,
        initial_offline=held_out,
    )


def compile_weibull_churn(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Continuous heavy-tailed session churn for the whole run.

    A :func:`~repro.workloads.churn.generate_churn` schedule with
    Weibull sessions drives a per-peer state machine: graceful leaves
    become graceful ``leave`` requests, failures become injector
    crashes followed by trailing stabilize purges, rejoins revive the
    peer at both levels (a ``join`` is a no-op for a crashed peer whose
    purge has not fired, and the purge then skips it).  Everything is
    compiled up front — the runner replays a fixed timeline.
    """
    n = bundle.config.n_peers
    initial = int(round(0.8 * n))
    schedule = generate_churn(
        universe=n,
        initial=initial,
        duration_ms=params.duration_ms,
        mean_session_ms=params.mean_session_ms,
        mean_offline_ms=params.mean_offline_ms,
        fail_fraction=params.fail_fraction,
        seed=RngFactory(params.seed).get("scenario-weibull-churn"),
        session_model="weibull",
        weibull_shape=params.weibull_shape,
    )
    plan = FaultPlan(seed=params.seed)
    waves: list[Request] = []
    purges: list[tuple[float, tuple[int, ...]]] = []
    # Per-peer state: "online" | "left" (net-removed) | "crashed"
    # (injector-dead; net-removed once its stabilize purge fires).
    state = {p: "online" for p in range(initial)}
    state.update({p: "left" for p in range(initial, n)})
    leaves = fails = joins = 0
    for event in schedule.events:
        p, t = event.peer, event.time_ms
        if event.action == "join" and state[p] != "online":
            if state[p] == "crashed":
                plan.revive_peers(at_ms=t, peers=[p])
            waves.append(Request("join", t, peers=(p,)))
            state[p] = "online"
            joins += 1
        elif event.action == "leave" and state[p] == "online":
            waves.append(Request("leave", t, peers=(p,), graceful=True))
            state[p] = "left"
            leaves += 1
        elif event.action == "fail" and state[p] == "online":
            plan.crash_peers(at_ms=t, peers=[p])
            purges.append((t + params.stabilize_delay_ms, (p,)))
            state[p] = "crashed"
            fails += 1
    waves += _purges(bundle, plan, purges)
    return _suite_campaign(
        bundle, params, "weibull_churn", plan,
        [w for w in waves if w.at_ms < params.duration_ms],
        {
            "session_model": "weibull",
            "weibull_shape": params.weibull_shape,
            "joins": joins,
            "graceful_leaves": leaves,
            "failures": fails,
        },
        initial_offline=tuple(range(initial, n)),
        fault_start_ms=0.0,
    )


def compile_landmark_outage_rolling(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Rolling landmark outages degrade the binning of rejoining peers.

    Landmarks go down one at a time; between outages, slices of a
    held-out cohort rejoin.  Each slice's landmark orders are
    recomputed with every dead landmark's distance column saturated —
    the §2.3 blinded-measurement model — and carried by the slice's
    ``join`` as ``ring_names``, so on HIERAS the joiners land in the
    wrong low-layer rings (flat Chord just sees ordinary rejoins).
    """
    n = bundle.config.n_peers
    n_landmarks = bundle.config.n_landmarks
    n_outages = min(params.n_outages, n_landmarks - 1)
    depth = bundle.config.depth
    held = int(round(0.15 * n))
    held_out = list(range(n - held, n))
    # One rejoin slice per outage window, landing mid-window.
    slices = np.array_split(np.asarray(held_out, dtype=np.int64), n_outages)
    window = (params.duration_ms - params.fault_at_ms) / n_outages
    distances = bundle.attachment.landmark_distances(bundle.peer_latency.model)
    saturate = float(distances.max()) * 4.0 + 100.0
    scheme = bundle.orders.scheme
    waves: list[Request] = []
    dead: list[int] = []
    for i in range(n_outages):
        outage_at = params.fault_at_ms + i * window
        dead.append(i)
        joiners = [int(p) for p in slices[i]]
        if not joiners:
            continue
        rows = distances[joiners].copy()
        rows[:, dead] = saturate
        orders = scheme.orders(rows)
        ring_names = tuple(
            tuple(orders.order_of(j, k) for k in range(depth - 1)) for j in range(len(joiners))
        )
        waves.append(Request("join", outage_at + window / 2.0, peers=tuple(joiners), ring_names=ring_names))
    return _suite_campaign(
        bundle, params, "landmark_outage_rolling", FaultPlan(seed=params.seed), waves,
        {"outages": n_outages, "rejoined_degraded": len(held_out)},
        initial_offline=tuple(held_out),
    )


def compile_two_wave_crash(
    bundle: SimulationBundle, params: ScenarioParams
) -> CompiledScenario:
    """Two silent crash waves and a rejoin around a write/read op stream.

    ``bench durability``'s campaign (DESIGN.md §11), one op per tick
    of ``probe_interval_ms``: publish ``catalog_size`` base keys; wave 1
    crashes ``fail_fraction`` of the universe; update half the base keys
    and publish half as many new ones; wave 2 crashes a second draw on
    a tick of its own; wave 1's peers outside wave 2 rejoin on the
    first read's tick; every key is read twice.  Waves and op sources
    come from the ``durability-waves`` / ``durability-sources`` streams;
    the op count, not ``duration_ms``, sets the run's length.
    """
    n = bundle.config.n_peers
    n_crash = int(round(params.fail_fraction * n))
    require(
        params.fail_fraction < 1.0 and n_crash < n,
        f"fail_fraction must leave a survivor in each crash wave, got "
        f"{params.fail_fraction} ({n_crash} of {n} peers)",
    )
    rngs = RngFactory(params.seed)
    wave_rng = rngs.get("durability-waves")
    wave1 = sorted(int(p) for p in wave_rng.choice(n, size=n_crash, replace=False))
    wave2 = sorted(int(p) for p in wave_rng.choice(n, size=n_crash, replace=False))
    rejoin = [p for p in wave1 if p not in set(wave2)]

    n_keys, half = params.catalog_size, params.catalog_size // 2
    base = [f"base-{i}" for i in range(n_keys)]
    new = [f"new-{i}" for i in range(half)]
    writes = [(name, f"v1-{i}") for i, name in enumerate(base)]
    writes += [(base[i], f"v2-{i}") for i in range(half)]
    writes += [(name, f"v1-{i}") for i, name in enumerate(new)]
    reads = 2 * (base + new)
    sources = rngs.get("durability-sources").integers(0, n, size=len(writes) + len(reads))
    # Op i fires on tick i + 1; wave 2 takes the tick between the
    # writes and the reads.
    step = params.probe_interval_ms
    first_read = len(writes) + 2
    requests = [
        Request("put", (i + 1) * step, source=int(sources[i]), name=name, value=value)
        for i, (name, value) in enumerate(writes)
    ] + [
        Request("get", (first_read + j) * step, source=int(sources[len(writes) + j]), name=name)
        for j, name in enumerate(reads)
    ]
    plan = FaultPlan(seed=params.seed)
    if wave1:
        plan.crash_peers(at_ms=(n_keys + 1) * step, peers=wave1)
    if wave2:
        plan.crash_peers(at_ms=(first_read - 1) * step, peers=wave2)
    if rejoin:
        plan.revive_peers(at_ms=first_read * step, peers=rejoin)
    return CompiledScenario(
        name="two_wave_crash",
        duration_ms=(first_read + len(reads)) * step,
        plan=plan,
        requests=tuple(requests),
        fault_start_ms=(n_keys + 1) * step,
        notes={"crashed_per_wave": n_crash, "rejoined": len(rejoin)},
    )


SCENARIOS: dict[
    str, Callable[[SimulationBundle, ScenarioParams], CompiledScenario]
] = {
    "graceful_leave": compile_graceful_leave,
    "abrupt_crash": compile_abrupt_crash,
    "regional_failure": compile_regional_failure,
    "flash_join": compile_flash_join,
    "weibull_churn": compile_weibull_churn,
    "landmark_outage_rolling": compile_landmark_outage_rolling,
    "two_wave_crash": compile_two_wave_crash,
}


def scenario_names() -> list[str]:
    """The suite ``bench scenarios`` sweeps, in canonical order: every
    campaign but the two-wave crash, which ``bench durability`` sweeps."""
    return [name for name in SCENARIOS if name != "two_wave_crash"]
