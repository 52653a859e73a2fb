"""The churn experiment: the §3.3 protocol under Poisson membership churn.

Bootstraps a HIERAS system on the event-driven protocol stack, replays
a Poisson churn schedule (joins, graceful leaves, crashes), then checks
that hierarchical lookups still resolve to the correct live owners and
reports the protocol's maintenance traffic — the §3.3–§3.4 behaviour
the trace-driven stack cannot exercise.
"""

from __future__ import annotations

import numpy as np

from repro.core.hieras_protocol import HierasProtocolNode
from repro.dht.base import ZeroLatency
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.workloads.churn import generate_churn

__all__ = ["bootstrap_protocol", "correct_lookups", "run_churn_simulation"]

#: How long the Poisson churn runs before the lookups.
CHURN_MS = 40_000


def bootstrap_protocol(
    *, universe: int, initial: int, n_rings: int, seed: int, loss_rate: float = 0.0
) -> tuple[
    IdSpace, np.random.Generator, np.ndarray, list[list[str]], Simulator, SimNetwork, list[HierasProtocolNode]
]:
    """A HIERAS system on the event-driven stack, settled.

    ``universe`` protocol nodes over a zero-latency network, peer ``p`` in
    ring ``p % n_rings``: node 0 founds the system, nodes 1 …
    ``initial - 1`` join 300 ms apart, then 30 s of stabilization.
    Returns ``(space, rng, ids, names, sim, net, nodes)``; ``rng`` has
    drawn the ids and is the caller's from here on.
    """
    space = IdSpace(16)
    rng = make_rng(seed)
    ids = space.sample_unique_ids(universe, rng)
    names = [[str(p % n_rings)] for p in range(universe)]
    sim = Simulator()
    net = SimNetwork(sim, ZeroLatency(), loss_rate=loss_rate, loss_seed=seed)
    nodes = [HierasProtocolNode(p, int(ids[p]), space, sim, net) for p in range(universe)]
    nodes[0].found_system(names[0], landmark_table=[1, 2])
    t = 0.0
    for p in range(1, initial):
        t += 300.0
        sim.schedule_at(t, nodes[p].join_system, 0, names[p])
    sim.run(until=t + 30_000, max_events=10_000_000)
    return space, rng, ids, names, sim, net, nodes


def correct_lookups(results: list, ids: np.ndarray, live: list[int]) -> int:
    """How many lookup results name their key's owner among the ``live`` peers."""
    live_ids = np.sort([int(ids[p]) for p in live])
    return sum(
        1 for out in results if out.owner_id == int(live_ids[np.searchsorted(live_ids, out.key) % len(live)])
    )


def run_churn_simulation(
    *,
    universe: int = 40,
    initial: int = 24,
    seed: int = 5,
    loss_rate: float = 0.0,
) -> dict[str, float]:
    """Run the churn scenario end to end; returns summary counters.

    Keys: ``completed``/``correct`` lookups, ``messages`` (total),
    ``maintenance_msgs`` (stabilize/notify/ring-table upkeep),
    ``live`` nodes at measurement time, ``messages_lost`` when
    ``loss_rate`` injects loss.
    """
    space, rng, ids, names, sim, net, nodes = bootstrap_protocol(
        universe=universe, initial=initial, n_rings=3, seed=seed, loss_rate=loss_rate
    )
    schedule = generate_churn(
        universe=universe,
        initial=initial,
        duration_ms=CHURN_MS,
        mean_session_ms=60_000,
        mean_offline_ms=30_000,
        fail_fraction=0.5,
        seed=seed + 1,
    )
    online = set(range(initial))
    base_t = sim.now

    def rejoin(peer: int, bootstrap: int) -> None:
        if peer not in net:
            net.register(nodes[peer])
        nodes[peer].recover()
        nodes[peer].join_system(bootstrap, names[peer])

    def depart(peer: int) -> None:
        nodes[peer].fail()
        net.unregister(peer)

    for event in schedule.events:
        when = base_t + event.time_ms
        peer = event.peer
        if event.action == "join" and peer not in online:
            bootstrap = min(online - {peer})
            online.add(peer)
            sim.schedule_at(when, rejoin, peer, bootstrap)
        elif event.action in ("leave", "fail") and peer in online and len(online) > 4:
            online.discard(peer)
            sim.schedule_at(when, depart, peer)
    sim.run(until=base_t + CHURN_MS + 60_000, max_events=40_000_000)

    live = sorted(
        p for p in online if nodes[p].alive and "global" in nodes[p].rings
    )
    results = []
    for _ in range(120):
        nodes[int(rng.choice(live))].hieras_lookup(
            int(rng.integers(0, space.size)), results.append
        )
    sim.run(until=sim.now + 60_000, max_events=50_000_000)
    return {
        "completed": float(len(results)),
        "correct": float(correct_lookups(results, ids, live)),
        "messages": float(net.messages_sent),
        "messages_lost": float(net.messages_lost),
        "maintenance_msgs": float(
            sum(
                count
                for kind, count in net.sent_by_kind.items()
                if kind in ("get_state", "state", "notify", "ring_table_update")
            )
        ),
        "live": float(len(live)),
    }
