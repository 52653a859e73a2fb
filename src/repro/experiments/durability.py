"""The durability experiment: data survival under churn (DESIGN.md §11).

PR 1's resilience experiment showed *lookups* survive faults; this one
asks whether *data* does.  Each cell builds a fresh
:class:`~repro.replication.store.ReplicatedStore` over one trace-driven
stack and replays a deterministic churn scenario against it:

1. **publish** — a catalogue of base keys is written fault-free;
2. **wave 1** — a churn fraction of peers crashes silently;
3. **write-under-faults** — half the base keys are updated and a batch
   of *new* keys is published while the damage is live: chain writes
   abort on broken links, quorum writes collect what acks they can, and
   hinted handoff queues the copies crashed replicas missed;
4. **wave 2 + rejoin** — a second churn wave lands, then wave 1's
   survivors revive (hint queues replay on rejoin);
5. **read + audit** — every key is read twice through the policy's
   consistency discipline (quorum reads detect and repair staleness),
   then a ground-truth :meth:`loss_audit` walks the catalogue.

Reported per cell: put/read success, chain aborts, detected and
returned staleness, read repairs, hinted-handoff traffic, and the
headline **probability of data loss**.  The sweep crosses
{replication factor} × {churn rate} × {chain, quorum} ×
{successor, ring_scoped} on both stacks; paired hinted-handoff cells
(same scenario, handoff on vs off) and a ring-locality headline
(successor vs ring-scoped placement on HIERAS) answer the ROADMAP's
open question directly.

Output follows the ``BENCH_*`` convention: one JSON document with a
nondeterministic ``phases`` section (wall times) and a deterministic
``metrics`` section — re-running the same seed reproduces ``metrics``
byte-for-byte.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle
from repro.faults import FaultInjector, FaultPlan
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.util.rng import RngFactory

__all__ = ["SCHEMA", "report", "run_bench", "run_durability_cell"]

SCHEMA = "repro.bench_durability/1"

#: The paired-handoff / ring-locality scenario (the headline cells).
HEADLINE_REPLICAS = 2
HEADLINE_CHURN = 0.3


def run_durability_cell(
    bundle: SimulationBundle,
    *,
    stack: str,
    policy: ReplicationPolicy,
    churn_fraction: float,
    n_keys: int,
    seed: int,
) -> dict[str, float]:
    """One churn scenario through one replicated stack; returns metrics.

    ``stack`` selects the inner network (``"chord"`` / ``"hieras"``).
    The scenario's randomness (crash waves, write/read sources) comes
    from :class:`~repro.util.rng.RngFactory` streams keyed by ``seed``,
    so a cell is a pure function of (bundle, stack, policy, churn,
    n_keys, seed).  Each operation advances the fault clock by 1 ms.
    """
    net = bundle.chord if stack == "chord" else bundle.hieras
    n_peers = net.n_peers
    rngs = RngFactory(seed)
    wave_rng = rngs.get("durability-waves")
    n_crash = int(round(churn_fraction * n_peers))
    wave1 = sorted(int(p) for p in wave_rng.choice(n_peers, size=n_crash, replace=False))
    wave2 = sorted(int(p) for p in wave_rng.choice(n_peers, size=n_crash, replace=False))
    rejoin = [p for p in wave1 if p not in set(wave2)]

    n_updates = n_keys // 2
    n_new = n_keys // 2
    t_wave1 = float(n_keys)
    t_wave2 = t_wave1 + n_updates + n_new + 1.0
    t_rejoin = t_wave2 + 1.0
    plan = FaultPlan(seed=seed)
    if wave1:
        plan.crash_peers(at_ms=t_wave1, peers=wave1)
    if wave2:
        plan.crash_peers(at_ms=t_wave2, peers=wave2)
    if rejoin:
        plan.revive_peers(at_ms=t_rejoin, peers=rejoin)
    injector = FaultInjector(plan, len(net._alive))
    store = ReplicatedStore(net, policy, injector=injector)

    source_rng = rngs.get("durability-sources")
    sources = source_rng.integers(0, n_peers, size=n_keys + n_updates + n_new + 2 * (n_keys + n_new))
    op = 0

    def next_source() -> int:
        nonlocal op
        s = int(sources[op])
        op += 1
        while injector.state.is_dead(s):
            s = (s + 1) % n_peers
        return s

    t = 0.0

    def tick() -> float:
        nonlocal t
        t += 1.0
        store.advance_to(t)
        return t

    put_latency = 0.0
    put_hops = 0
    # Phase 1: publish the base catalogue fault-free.
    for i in range(n_keys):
        result = store.put(next_source(), f"base-{i}", f"v1-{i}")
        put_latency += result.total_latency_ms
        put_hops += result.hops
        tick()
    # Phase 3 (wave 1 lands on the first tick past t_wave1): updates
    # and fresh publishes while the damage is live.
    for i in range(n_updates):
        result = store.put(next_source(), f"base-{i}", f"v2-{i}")
        put_latency += result.total_latency_ms
        put_hops += result.hops
        tick()
    for i in range(n_new):
        result = store.put(next_source(), f"new-{i}", f"v1-{i}")
        put_latency += result.total_latency_ms
        put_hops += result.hops
        tick()
    # Phase 4: wave 2, then wave 1's survivors rejoin (hints replay).
    tick()
    tick()
    # Phase 5: read every key twice through the consistency discipline.
    names = [f"base-{i}" for i in range(n_keys)] + [f"new-{i}" for i in range(n_new)]
    reads = stale_values = read_latency = 0.0
    for _ in range(2):
        for name in names:
            result = store.get(next_source(), name)
            reads += 1.0
            read_latency += result.total_latency_ms
            if (
                result.success
                and result.value is not None
                and result.version < store.version_of(name)
            ):
                stale_values += 1.0
            tick()
    audit = store.loss_audit()
    stats = store.stats
    get_ok = stats.get_successes
    return {
        "n_peers": float(n_peers),
        "crashed_final": float(int(injector.state.dead.sum())),
        "puts": float(stats.puts),
        "put_success_rate": stats.put_successes / stats.puts if stats.puts else 0.0,
        "chain_aborts": float(stats.chain_aborts),
        "put_mean_hops": put_hops / stats.puts if stats.puts else 0.0,
        "put_mean_latency_ms": put_latency / stats.puts if stats.puts else 0.0,
        "reads": reads,
        "read_success_rate": get_ok / reads if reads else 0.0,
        "read_mean_latency_ms": read_latency / reads if reads else 0.0,
        "stale_read_rate": stats.stale_reads / get_ok if get_ok else 0.0,
        "stale_value_rate": stale_values / get_ok if get_ok else 0.0,
        "read_repairs": float(stats.read_repairs),
        "lost_read_rate": stats.lost_reads / get_ok if get_ok else 0.0,
        "hints_queued": float(stats.hints_queued),
        "hints_replayed": float(stats.hints_replayed),
        "replica_contacts": float(stats.replica_contacts),
        "contact_failures": float(stats.contact_failures),
        "loss_probability": audit["loss_probability"],
        "stale_probability": audit["stale_probability"],
        "keys": audit["keys"],
        "lost": audit["lost"],
    }


def run_bench(
    *,
    full: bool = False,
    seed: int = 42,
    n_peers: int | None = None,
    n_keys: int | None = None,
    replication_factors: tuple[int, ...] = (0, 2, 4),
    churn_fractions: tuple[float, ...] = (0.1, 0.3),
) -> dict[str, object]:
    """Run the durability sweep once; returns the BENCH document.

    Sweep shape (per stack): replication factor × churn fraction ×
    consistency mode × placement, every cell replaying the same
    scenario shape under its own seeded waves.  Two extra sections ride
    along: ``handoff`` pairs the headline scenario with hinted handoff
    on vs off, and ``headline`` condenses the ring-locality comparison
    (HIERAS ``ring_scoped`` vs ``successor`` placement) plus the
    chain-vs-quorum divergence.
    """
    if n_peers is None:
        n_peers = 2000 if full else 400
    if n_keys is None:
        n_keys = 200 if full else 80

    bench = BenchRun(SCHEMA, full=full, seed=seed)
    with bench.timed("build"):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=seed)
        )

    cells: list[dict[str, object]] = []
    for stack in ("chord", "hieras"):
        with bench.timed(f"{stack}_sweep"):
            for replicas in replication_factors:
                for churn in churn_fractions:
                    for consistency in ("chain", "quorum"):
                        for placement in ("successor", "ring_scoped"):
                            policy = ReplicationPolicy(
                                replicas=replicas,
                                consistency=consistency,
                                placement=placement,
                            )
                            metrics = run_durability_cell(
                                bundle,
                                stack=stack,
                                policy=policy,
                                churn_fraction=churn,
                                n_keys=n_keys,
                                seed=seed,
                            )
                            cells.append(
                                {
                                    "stack": stack,
                                    "replicas": replicas,
                                    "churn_fraction": churn,
                                    "consistency": consistency,
                                    "placement": placement,
                                    "hinted_handoff": True,
                                    **metrics,
                                }
                            )

    # Paired hinted-handoff cells: identical scenario, handoff toggled.
    handoff: dict[str, dict[str, dict[str, float]]] = {}
    with bench.timed("handoff_pairs"):
        for stack in ("chord", "hieras"):
            pair: dict[str, dict[str, float]] = {}
            for label, enabled in (("on", True), ("off", False)):
                policy = ReplicationPolicy(
                    replicas=HEADLINE_REPLICAS,
                    consistency="quorum",
                    placement="successor",
                    hinted_handoff=enabled,
                )
                pair[label] = run_durability_cell(
                    bundle,
                    stack=stack,
                    policy=policy,
                    churn_fraction=HEADLINE_CHURN,
                    n_keys=n_keys,
                    seed=seed,
                )
            handoff[stack] = pair

    def _cell(stack: str, consistency: str, placement: str) -> dict[str, object]:
        for c in cells:
            if (
                c["stack"] == stack
                and c["replicas"] == HEADLINE_REPLICAS
                and c["churn_fraction"] == HEADLINE_CHURN
                and c["consistency"] == consistency
                and c["placement"] == placement
            ):
                return c
        raise KeyError((stack, consistency, placement))

    headline: dict[str, object] = {
        "ring_locality": {
            stack: {
                "successor_loss": _cell(stack, "quorum", "successor")["loss_probability"],
                "ring_scoped_loss": _cell(stack, "quorum", "ring_scoped")["loss_probability"],
                "successor_put_latency_ms": _cell(stack, "quorum", "successor")["put_mean_latency_ms"],
                "ring_scoped_put_latency_ms": _cell(stack, "quorum", "ring_scoped")["put_mean_latency_ms"],
            }
            for stack in ("chord", "hieras")
        },
        "chain_vs_quorum": {
            stack: {
                "chain_put_success": _cell(stack, "chain", "successor")["put_success_rate"],
                "quorum_put_success": _cell(stack, "quorum", "successor")["put_success_rate"],
                "chain_read_success": _cell(stack, "chain", "successor")["read_success_rate"],
                "quorum_read_success": _cell(stack, "quorum", "successor")["read_success_rate"],
            }
            for stack in ("chord", "hieras")
        },
        "handoff_loss": {
            stack: {
                "on": handoff[stack]["on"]["loss_probability"],
                "off": handoff[stack]["off"]["loss_probability"],
            }
            for stack in ("chord", "hieras")
        },
    }

    return bench.document(
        config={
            "n_peers": n_peers,
            "n_keys": n_keys,
            "replication_factors": list(replication_factors),
            "churn_fractions": list(churn_fractions),
            "headline_replicas": HEADLINE_REPLICAS,
            "headline_churn": HEADLINE_CHURN,
        },
        metrics={"cells": cells, "handoff": handoff, "headline": headline},
    )


def report(doc: dict[str, object]) -> str:
    """Render the durability report from its document.

    The claims pin the four headline effects: replication eliminates
    the replicas=0 loss, quorum out-survives chain under the same
    faults, hinted handoff cuts loss vs handoff-disabled, and HIERAS
    ring-scoped placement is cheaper to write to without costing
    durability under uniform churn.
    """
    metrics = doc["metrics"]
    cells = metrics["cells"]
    headline = metrics["headline"]
    rows = [
        {
            "stack": c["stack"],
            "r": c["replicas"],
            "churn": c["churn_fraction"],
            "mode": c["consistency"],
            "placement": c["placement"],
            "loss_%": round(100 * c["loss_probability"], 2),
            "put_ok_%": round(100 * c["put_success_rate"], 1),
            "read_ok_%": round(100 * c["read_success_rate"], 1),
            "stale_%": round(100 * c["stale_value_rate"], 2),
            "aborts": int(c["chain_aborts"]),
            "repairs": int(c["read_repairs"]),
            "hints": int(c["hints_replayed"]),
        }
        for c in cells
        if c["churn_fraction"] == HEADLINE_CHURN
    ]

    def _loss(stack: str, replicas: int) -> float:
        return max(
            c["loss_probability"]
            for c in cells
            if c["stack"] == stack
            and c["replicas"] == replicas
            and c["churn_fraction"] == HEADLINE_CHURN
        )

    bare_loss = {s: _loss(s, 0) for s in ("chord", "hieras")}
    replicated_loss = {s: _loss(s, HEADLINE_REPLICAS) for s in ("chord", "hieras")}
    divergence = headline["chain_vs_quorum"]
    handoff = headline["handoff_loss"]
    locality = headline["ring_locality"]["hieras"]
    config = doc["config"]
    lines = [
        f"{config['n_peers']} peers, TS model, {config['n_keys']} keys per cell, "
        f"two crash waves of {HEADLINE_CHURN:.0%} each + rejoin, seed {config['seed']}",
        format_table(rows),
        "",
        claim(
            all(bare_loss[s] > 0.1 and replicated_loss[s] < bare_loss[s] / 2 for s in bare_loss),
            f"replication works: replicas=0 loses "
            f"{ {s: round(100 * v, 1) for s, v in bare_loss.items()} }% of keys at "
            f"{HEADLINE_CHURN:.0%} churn; replicas={HEADLINE_REPLICAS} cuts loss to "
            f"{ {s: round(100 * v, 1) for s, v in replicated_loss.items()} }%",
        ),
        claim(
            all(
                d["quorum_put_success"] > d["chain_put_success"]
                for d in divergence.values()
            ),
            "chain and quorum diverge under the same faults: chain writes abort "
            "on any broken link while quorum writes ride out minority failures "
            f"(put success { {s: (round(d['chain_put_success'], 3), round(d['quorum_put_success'], 3)) for s, d in divergence.items()} } chain vs quorum)",
        ),
        claim(
            all(h["on"] <= h["off"] for h in handoff.values())
            and any(h["on"] < h["off"] for h in handoff.values()),
            "hinted handoff reduces loss vs handoff-disabled on the paired "
            f"scenario (loss on/off: { {s: (round(h['on'], 3), round(h['off'], 3)) for s, h in handoff.items()} })",
        ),
        claim(
            locality["ring_scoped_put_latency_ms"] < locality["successor_put_latency_ms"]
            and locality["ring_scoped_loss"] <= locality["successor_loss"] + 0.05,
            "HIERAS ring-scoped placement writes to topologically-near "
            "replicas — cheaper puts "
            f"({locality['ring_scoped_put_latency_ms']:.0f} vs "
            f"{locality['successor_put_latency_ms']:.0f} ms mean) "
            "without hurting durability under uniform churn",
        ),
    ]
    return "\n".join(lines)
