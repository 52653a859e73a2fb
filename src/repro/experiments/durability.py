"""The durability experiment: data survival under churn (DESIGN.md §11).

PR 1's resilience experiment showed *lookups* survive faults; this one
asks whether *data* does.  Each cell is one replay of the
``two_wave_crash`` campaign (:mod:`repro.scenarios.library`) through
:func:`~repro.scenarios.runner.run_scenario_cell`, with a fresh
:class:`~repro.replication.store.ReplicatedStore` under the cell's
policy:

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

from dataclasses import replace
from itertools import product

from repro.analysis.tables import format_table
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.replication import ReplicationPolicy
from repro.scenarios.runner import run_scenario_cell
from repro.scenarios.spec import ScenarioParams

__all__ = ["SCHEMA", "durability_metrics", "report", "run_bench"]

SCHEMA = "repro.bench_durability/1"

#: The paired-handoff / ring-locality scenario (the headline cells).
HEADLINE_REPLICAS = 2
HEADLINE_CHURN = 0.3


def durability_metrics(cell: dict[str, object]) -> dict[str, float]:
    """A ``two_wave_crash`` scenario cell's durability keys: the store's
    counters and sums as per-put / per-read rates, plus the audit.

    ``read_success_rate`` is the runner's ``get_success_rate``: a read
    that comes back empty for a published key (a lost read) is a
    failure, as in every scenario's report."""
    c = {k: v for k, v in cell.items() if isinstance(v, float)}
    puts, reads, get_ok = c["puts"], c["gets"], c["get_successes"]
    kept = (
        "n_peers", "crashed_final", "puts", "chain_aborts", "read_repairs",
        "hints_queued", "hints_replayed", "replica_contacts", "contact_failures",
        "loss_probability", "stale_probability", "keys", "lost",
    )
    return {
        **{k: c[k] for k in kept},
        "put_success_rate": c["put_successes"] / puts if puts else 0.0,
        "put_mean_hops": c["put_hops"] / puts if puts else 0.0,
        "put_mean_latency_ms": c["put_latency_ms"] / puts if puts else 0.0,
        "reads": reads,
        "read_success_rate": c["get_success_rate"],
        "read_mean_latency_ms": c["read_latency_ms"] / reads if reads else 0.0,
        "stale_read_rate": c["stale_reads"] / get_ok if get_ok else 0.0,
        "stale_value_rate": c["stale_values"] / get_ok if get_ok else 0.0,
        "lost_read_rate": c["lost_reads"] / get_ok if get_ok else 0.0,
    }


def run_bench(
    *,
    seed: int = 42,
    n_peers: int = 400,
    n_keys: int = 80,
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
    config = SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=seed)
    # Every cell is the two-wave crash, one op per probe tick and no
    # probe cohort, at the cell's policy and churn fraction.
    base = ScenarioParams(seed=seed, n_probes=0, catalog_size=n_keys)
    bench = BenchRun(SCHEMA, seed=seed)
    cells: list[dict[str, object]] = []
    for stack in ("chord", "hieras"):
        with bench.timed(f"{stack}_sweep"):
            for replicas, churn, consistency, placement in product(
                replication_factors, churn_fractions, ("chain", "quorum"), ("successor", "ring_scoped")
            ):
                policy = ReplicationPolicy(
                    replicas=replicas, consistency=consistency, placement=placement
                )
                params = replace(base, fail_fraction=churn, policy=policy)
                cells.append(
                    {
                        "stack": stack,
                        "replicas": replicas,
                        "churn_fraction": churn,
                        "consistency": consistency,
                        "placement": placement,
                        "hinted_handoff": True,
                        **durability_metrics(
                            run_scenario_cell(config, "two_wave_crash", stack, params)
                        ),
                    }
                )

    # Paired hinted-handoff cells: identical scenario, handoff toggled.
    handoff: dict[str, dict[str, dict[str, float]]] = {}
    with bench.timed("handoff_pairs"):
        for stack in ("chord", "hieras"):
            handoff[stack] = {}
            for label, enabled in (("on", True), ("off", False)):
                policy = ReplicationPolicy(
                    replicas=HEADLINE_REPLICAS,
                    consistency="quorum",
                    placement="successor",
                    hinted_handoff=enabled,
                )
                params = replace(base, fail_fraction=HEADLINE_CHURN, policy=policy)
                handoff[stack][label] = durability_metrics(
                    run_scenario_cell(config, "two_wave_crash", stack, params)
                )

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
