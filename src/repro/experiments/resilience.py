"""The resilience experiment: quantifying the paper's §3.3 argument.

The paper argues qualitatively that HIERAS tolerates failures as cheaply
as flat Chord because every node keeps a successor list per layer.  This
experiment makes the claim quantitative on both execution stacks:

* **Static sweep** — one :class:`~repro.faults.plan.FaultPlan` per cell
  crashes a fraction of peers mid-trace (and optionally runs a
  message-loss burst) while `route_lossy` lookups continue over the now
  *stale* ring snapshots, paying timeout penalties for every dead finger
  they trip over.  Reported per cell and per network: lookup success
  rate, mean hops, timeout count, and latency including retry penalties.
* **Protocol scenario** — the *same* plan drives the discrete-event
  stack: crashes call ``SimNode.fail`` mid-run, loss bursts raise the
  network's drop probability, and failure-aware lookups (originator
  watchdog + re-issue) must still resolve to correct live owners once
  stabilization routes around the damage.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import SimulationBundle, make_trace
from repro.faults import FaultInjector, FaultPlan

__all__ = ["run_static_resilience_cell", "run_protocol_resilience"]

#: The protocol scenario: the share crashed 5 s in, the loss rate over
#: the first 10 s, and each lookup's re-issues.
PROTOCOL_FAIL_FRACTION = 0.2
PROTOCOL_LOSS_RATE = 0.05
PROTOCOL_RETRIES = 2


def run_static_resilience_cell(
    bundle: SimulationBundle,
    *,
    fail_fraction: float,
    loss_rate: float,
    n_requests: int,
    seed: int,
) -> dict[str, dict[str, float]]:
    """One sweep cell: HIERAS vs Chord under one fault plan.

    The plan crashes ``fail_fraction`` of peers halfway through the
    request trace (each request advances the fault clock by 1 ms) and,
    when ``loss_rate > 0``, keeps an ambient loss burst active for the
    whole run.  Both networks replay the identical trace under
    identical fault schedules — same dead set, same loss conditions —
    so the comparison isolates the routing structure.

    Returns ``{"chord": {...}, "hieras": {...}}`` metric dicts.
    """
    n_peers = bundle.hieras.n_peers
    trace = make_trace(bundle, n_requests)
    plan = FaultPlan(seed=seed)
    if fail_fraction > 0.0:
        plan.crash_fraction(at_ms=n_requests / 2.0, fraction=fail_fraction)
    if loss_rate > 0.0:
        plan.loss_burst(at_ms=0.0, rate=loss_rate, duration_ms=float(n_requests + 1))

    out: dict[str, dict[str, float]] = {}
    for name, net in (("chord", bundle.chord), ("hieras", bundle.hieras)):
        injector = FaultInjector(plan, n_peers)
        attempted = succeeded = timeouts = 0
        skipped_dead_source = 0
        total_ms = 0.0
        hops_ok: list[int] = []
        for i, (src, key) in enumerate(trace):
            injector.advance_to(float(i))
            src, key = int(src), int(key)
            if injector.state.is_dead(src):
                skipped_dead_source += 1  # a dead peer originates nothing
                continue
            result = net.route_lossy(src, key, injector=injector)
            attempted += 1
            timeouts += result.timeouts
            total_ms += result.total_latency_ms
            if result.success:
                succeeded += 1
                hops_ok.append(result.hops)
        out[name] = {
            "attempted": float(attempted),
            "skipped_dead_source": float(skipped_dead_source),
            "success_rate": succeeded / attempted if attempted else 0.0,
            "mean_hops": float(np.mean(hops_ok)) if hops_ok else 0.0,
            "timeouts_per_lookup": timeouts / attempted if attempted else 0.0,
            "mean_total_latency_ms": total_ms / attempted if attempted else 0.0,
        }
    return out


def run_protocol_resilience(
    *,
    universe: int = 24,
    n_rings: int = 3,
    n_lookups: int = 80,
    seed: int = 7,
) -> dict[str, float]:
    """Drive the protocol stack through a :class:`FaultPlan`.

    Bootstraps a full HIERAS system, installs a plan that crashes
    ``PROTOCOL_FAIL_FRACTION`` of the population 5 s in (plus a loss
    burst from t=0), lets stabilization react, then issues
    failure-aware lookups (``PROTOCOL_RETRIES`` re-issues under an
    originator watchdog) and checks them against the surviving
    membership.

    Returns counters: ``completed``/``correct``/``failed`` lookups,
    ``retries_used``, ``crashed``, ``live``, plus the network's message
    stats.
    """
    from repro.experiments.churn_exp import bootstrap_protocol, correct_lookups

    space, rng, ids, _, sim, net, nodes = bootstrap_protocol(
        universe=universe, initial=universe, n_rings=n_rings, seed=seed
    )

    plan = (
        FaultPlan(seed=seed + 1)
        .loss_burst(at_ms=0.0, rate=PROTOCOL_LOSS_RATE, duration_ms=10_000.0)
        .crash_fraction(at_ms=5_000.0, fraction=PROTOCOL_FAIL_FRACTION)
    )
    injector = FaultInjector(plan, universe)
    injector.install_sim(sim, net)
    # Let the crashes land and stabilization route around them.
    sim.run(until=sim.now + 35_000, max_events=40_000_000)

    live = sorted(
        p
        for p in range(universe)
        if nodes[p].alive and not injector.state.is_dead(p) and "global" in nodes[p].rings
    )
    results = []
    failures: list[int] = []
    for _ in range(n_lookups):
        nodes[int(rng.choice(live))].hieras_lookup(
            int(rng.integers(0, space.size)),
            results.append,
            retries=PROTOCOL_RETRIES,
            on_fail=failures.append,
        )
    sim.run(until=sim.now + 120_000, max_events=50_000_000)
    return {
        "completed": float(len(results)),
        "correct": float(correct_lookups(results, ids, live)),
        "failed": float(len(failures)),
        "retries_used": float(sum(n.lookup_retry_count for n in nodes)),
        "crashed": float(int(injector.state.dead.sum())),
        "live": float(len(live)),
        "messages": float(net.messages_sent),
        "messages_lost": float(net.messages_lost),
    }
