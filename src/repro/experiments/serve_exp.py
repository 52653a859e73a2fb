"""The saturation experiment: serving-layer capacity under open-loop load.

PR 7 turns the routing library into a service (DESIGN.md §12); this
experiment asks the operator questions: **how much load can one front
door take, where is the knee, and what moves it?**  Each cell wires a
:class:`~repro.serve.service.DHTService` over one trace-driven stack
(writes through a quorum :class:`~repro.replication.store
.ReplicatedStore`), drives it with a deterministic open-loop schedule
from :mod:`repro.loadgen`, and condenses the run into an
:class:`~repro.loadgen.slo.SLOReport`.

Four sections:

1. **sweep** — offered load vs achieved throughput vs p99 at a ladder
   of constant rates on both stacks (3:1 read:write Zipf mix).  The
   **knee** is where achieved throughput stops tracking offered load;
   the cost model predicts it at ``workers / mean_dispatch_cost``.
2. **flash** — a flash-crowd spike (8× base for 2 s) through an
   unbounded queue vs a bounded one: admission control trades a slice
   of goodput for a bounded queue-wait tail.
3. **coalescing** — the same overload cell dispatched per-request
   (``max_batch=1``) vs batch-coalesced: amortizing the dispatch
   overhead across a batch-route call moves the knee.
4. **churn** — the steady mix with a leave wave mid-run and a rejoin
   later, store attached to the network so departures drop disks; the
   service keeps serving through the membership churn.

Output follows the ``BENCH_*`` convention: one JSON document whose
``phases`` section holds nondeterministic wall times and whose
``metrics`` section is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle
from repro.loadgen import (
    SLOReport,
    WorkloadMix,
    catalog_names,
    constant_rate,
    flash_crowd,
    generate,
)
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.serve import DHTService, Request, ServiceConfig

__all__ = ["SCHEMA", "mixed_capacity_per_s", "report", "run_bench", "run_serve_cell"]

SCHEMA = "repro.bench_serve/1"

#: Offered-load ladder for the saturation sweep (requests/second).
SWEEP_RATES = (200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0)
#: The overload rate where the coalescing comparison runs — past the
#: scalar knee (~681/s at default costs) but under the batched one.
COALESCE_RATE = 1600.0
#: Flash-crowd shape: base rate, spiked 8x for a fifth of the window.
FLASH_BASE = 400.0
FLASH_FACTOR = 8.0
#: Bounded-queue depth for the admission-control cell.
FLASH_QUEUE_LIMIT = 256
#: Fraction of peers churned in the membership cell.
CHURN_FRACTION = 0.1


def mixed_capacity_per_s(
    cfg: ServiceConfig, read_fraction: float, *, coalesced: bool = True
) -> float:
    """Cost-model capacity for a read/write mix (requests/second).

    Mean worker cost per request is the read/write-weighted dispatch
    cost; coalesced reads amortize the dispatch overhead across a full
    batch, scalar reads pay it whole.  This is the predicted knee the
    sweep should plateau at.
    """
    overhead = cfg.dispatch_overhead_ms / cfg.max_batch if coalesced else cfg.dispatch_overhead_ms
    per_read = overhead + cfg.per_lookup_ms
    per_write = cfg.dispatch_overhead_ms + cfg.per_write_ms
    mean_cost = read_fraction * per_read + (1.0 - read_fraction) * per_write
    if mean_cost <= 0.0:
        return float("inf")
    return 1000.0 * cfg.workers / mean_cost


def run_serve_cell(
    bundle: SimulationBundle,
    *,
    stack: str,
    rate_per_s: float,
    duration_ms: float,
    mix: WorkloadMix,
    service: ServiceConfig,
    seed: int,
    schedule_kind: str = "constant",
    membership: bool = False,
) -> dict[str, Any]:
    """One load scenario through one serving stack; returns the SLO dict.

    A cell is a pure function of its arguments: the schedule, workload,
    and store are all seeded, and the service clock is simulated.  The
    store is fresh per cell (catalogue pre-seeded onto replica groups),
    so cells don't leak state into each other.  ``membership=True``
    mixes a leave wave at 30% of the window and a rejoin of the same
    peers at 70% into the request stream — the wave peers are disjoint
    from the client source pool, and the network ends the cell fully
    revived.
    """
    net = bundle.chord if stack == "chord" else bundle.hieras
    n_peers = int(net.n_peers)
    store = ReplicatedStore(
        net, ReplicationPolicy(replicas=2, consistency="quorum", placement="successor")
    )
    for name in catalog_names(mix):
        store.seed_key(name, "v0")

    if schedule_kind == "flash":
        sched = flash_crowd(
            rate_per_s,
            duration_ms,
            spike_at_ms=0.3 * duration_ms,
            spike_duration_ms=0.2 * duration_ms,
            spike_factor=FLASH_FACTOR,
        )
    else:
        sched = constant_rate(rate_per_s, duration_ms)

    # Clients issue from the low half of the id range; churn waves take
    # peers from the high half so a departed client never "fails" a get.
    pool_size = n_peers // 2 if membership else n_peers
    pool = np.arange(pool_size, dtype=np.int64)
    requests = generate(mix, sched.arrival_times(seed), pool, seed=seed + 1)

    if membership:
        from repro.util.rng import make_rng

        wave_rng = make_rng(seed + 2)
        n_wave = max(1, int(round(CHURN_FRACTION * n_peers)))
        wave = tuple(
            sorted(
                int(p)
                for p in wave_rng.choice(
                    np.arange(pool_size, n_peers), size=n_wave, replace=False
                )
            )
        )
        requests = sorted(
            requests
            + [
                Request(op="leave", at_ms=0.3 * duration_ms, peers=wave),
                Request(op="join", at_ms=0.7 * duration_ms, peers=wave),
            ],
            key=lambda r: r.at_ms,
        )
        net.attach_store(store)

    try:
        result = DHTService(net, config=service, store=store).run(requests)
    finally:
        if membership:
            net.detach_store(store)

    report = SLOReport.from_result(
        result, offered_per_s=rate_per_s, duration_ms=duration_ms
    )
    cell = report.as_dict()
    if membership:
        reg = result.registry
        cell["leave_peers"] = reg.counters["serve.leave.peers"].value
        cell["join_peers"] = reg.counters["serve.join.peers"].value
    return cell


def run_bench(
    *,
    full: bool = False,
    seed: int = 42,
    n_peers: int | None = None,
    duration_ms: float | None = None,
    rates: tuple[float, ...] = SWEEP_RATES,
) -> dict[str, object]:
    """Run the saturation study once; returns the BENCH document.

    Per stack: the offered-load sweep (batched dispatch), the derived
    knee, the flash-crowd admission pair, the coalescing pair at the
    overload rate, and the churn cell.  Membership cells run last so
    the shared bundle's networks are never mid-churn for another cell.
    """
    if n_peers is None:
        n_peers = 2000 if full else 400
    if duration_ms is None:
        duration_ms = 10_000.0 if full else 5_000.0
    mix = WorkloadMix(catalog_size=512 if full else 128)
    batched = ServiceConfig()
    scalar = ServiceConfig(max_batch=1)

    bench = BenchRun(SCHEMA, full=full, seed=seed)
    with bench.timed("build"):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=seed)
        )

    sweep: list[dict[str, Any]] = []
    knee: dict[str, dict[str, float]] = {}
    for stack in ("chord", "hieras"):
        with bench.timed(f"{stack}_sweep"):
            for rate in rates:
                cell = run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=rate,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=batched,
                    seed=seed,
                )
                sweep.append({"stack": stack, **cell})
        rows = [c for c in sweep if c["stack"] == stack]
        saturated = [
            c["offered_per_s"]
            for c in rows
            if c["achieved_per_s"] < 0.95 * c["offered_per_s"]
        ]
        knee[stack] = {
            "achieved_max_per_s": max(c["achieved_per_s"] for c in rows),
            "first_saturated_rate_per_s": min(saturated) if saturated else float("inf"),
            "model_capacity_per_s": mixed_capacity_per_s(batched, mix.read_fraction),
            "model_scalar_capacity_per_s": mixed_capacity_per_s(
                batched, mix.read_fraction, coalesced=False
            ),
        }

    flash: dict[str, dict[str, Any]] = {}
    with bench.timed("flash_pairs"):
        for stack in ("chord", "hieras"):
            pair: dict[str, Any] = {}
            for label, limit in (("unbounded", None), ("bounded", FLASH_QUEUE_LIMIT)):
                pair[label] = run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=FLASH_BASE,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=ServiceConfig(queue_limit=limit),
                    seed=seed,
                    schedule_kind="flash",
                )
            flash[stack] = pair

    coalescing: dict[str, dict[str, Any]] = {}
    with bench.timed("coalescing_pairs"):
        for stack in ("chord", "hieras"):
            batched_cell = next(
                c
                for c in sweep
                if c["stack"] == stack and c["offered_per_s"] == COALESCE_RATE
            )
            coalescing[stack] = {
                "batched": {k: v for k, v in batched_cell.items() if k != "stack"},
                "scalar": run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=COALESCE_RATE,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=scalar,
                    seed=seed,
                ),
            }

    churn: dict[str, Any] = {}
    with bench.timed("churn_cells"):
        for stack in ("chord", "hieras"):
            churn[stack] = run_serve_cell(
                bundle,
                stack=stack,
                rate_per_s=FLASH_BASE,
                duration_ms=duration_ms,
                mix=mix,
                service=batched,
                seed=seed,
                membership=True,
            )

    headline: dict[str, object] = {
        "knee_shift": {
            stack: {
                "scalar_achieved_per_s": coalescing[stack]["scalar"]["achieved_per_s"],
                "batched_achieved_per_s": coalescing[stack]["batched"]["achieved_per_s"],
                "offered_per_s": COALESCE_RATE,
            }
            for stack in ("chord", "hieras")
        },
        "admission": {
            stack: {
                "unbounded_queue_p99_ms": flash[stack]["unbounded"]["phases"]["queue_wait"]["p99"],
                "bounded_queue_p99_ms": flash[stack]["bounded"]["phases"]["queue_wait"]["p99"],
                "unbounded_total_p99_ms": flash[stack]["unbounded"]["phases"]["total"]["p99"],
                "bounded_total_p99_ms": flash[stack]["bounded"]["phases"]["total"]["p99"],
                "rejected": flash[stack]["bounded"]["rejected"],
                "bounded_goodput": flash[stack]["bounded"]["goodput_fraction"],
            }
            for stack in ("chord", "hieras")
        },
        "knee": knee,
    }

    return bench.document(
        config={
            "n_peers": n_peers,
            "duration_ms": duration_ms,
            "rates": list(rates),
            "coalesce_rate": COALESCE_RATE,
            "flash_base_per_s": FLASH_BASE,
            "flash_factor": FLASH_FACTOR,
            "flash_queue_limit": FLASH_QUEUE_LIMIT,
            "churn_fraction": CHURN_FRACTION,
            "mix": {
                "read_fraction": mix.read_fraction,
                "catalog_size": mix.catalog_size,
                "zipf_exponent": mix.zipf_exponent,
            },
            "service": {
                "workers": batched.workers,
                "max_batch": batched.max_batch,
                "dispatch_overhead_ms": batched.dispatch_overhead_ms,
                "per_lookup_ms": batched.per_lookup_ms,
                "per_write_ms": batched.per_write_ms,
                "per_membership_ms": batched.per_membership_ms,
            },
        },
        metrics={
            "sweep": sweep,
            "flash": flash,
            "coalescing": coalescing,
            "churn": churn,
            "headline": headline,
        },
    )


def report(doc: dict[str, object]) -> str:
    """Render the saturation report from its document.

    The claims pin the headline effects: achieved throughput tracks
    offered load until the cost-model knee and plateaus there, batch
    coalescing moves the knee vs per-request dispatch, admission control
    bounds the flash-crowd queue-wait tail, HIERAS serves the same
    capacity at a lower end-to-end p99 than Chord, and the service
    keeps serving through a leave wave + rejoin.
    """
    metrics = doc["metrics"]
    sweep = metrics["sweep"]
    headline = metrics["headline"]
    knee = headline["knee"]
    rows = [
        {
            "stack": c["stack"],
            "offered/s": int(c["offered_per_s"]),
            "achieved/s": round(c["achieved_per_s"], 1),
            "q_p99_ms": round(c["phases"]["queue_wait"]["p99"], 1),
            "total_p99_ms": round(c["phases"]["total"]["p99"], 1),
            "total_p999_ms": round(c["phases"]["total"]["p999"], 1),
            "batch": round(c["mean_batch_size"], 2),
            "depth": c["max_queue_depth"],
        }
        for c in sweep
    ]

    def _tracks(c: dict) -> bool:
        capacity = knee[c["stack"]]["model_capacity_per_s"]
        if c["offered_per_s"] < 0.95 * capacity:
            return c["achieved_per_s"] >= 0.95 * c["offered_per_s"]
        return c["achieved_per_s"] <= 1.05 * capacity

    shift = headline["knee_shift"]
    admission = headline["admission"]
    tail_pairs = [
        (
            next(c for c in sweep if c["stack"] == "chord" and c["offered_per_s"] == r),
            next(c for c in sweep if c["stack"] == "hieras" and c["offered_per_s"] == r),
        )
        for r in (c["offered_per_s"] for c in sweep if c["stack"] == "chord")
    ]
    config = doc["config"]
    lines = [
        f"{config['n_peers']} peers, TS model, {config['duration_ms']:.0f} ms windows, "
        f"{config['mix']['read_fraction']:.0%} reads over a Zipf({config['mix']['zipf_exponent']}) "
        f"catalogue of {config['mix']['catalog_size']}, quorum replicas=2, seed {config['seed']}",
        format_table(rows),
        "",
        claim(
            all(_tracks(c) for c in sweep),
            "achieved throughput tracks offered load until the cost-model knee "
            f"(~{knee['hieras']['model_capacity_per_s']:.0f}/s batched) and plateaus there "
            f"(measured max { {s: round(k['achieved_max_per_s']) for s, k in knee.items()} }/s)",
        ),
        claim(
            all(
                p["batched_achieved_per_s"] > 1.5 * p["scalar_achieved_per_s"]
                for p in shift.values()
            ),
            "batch coalescing moves the knee: at "
            f"{config['coalesce_rate']:.0f}/s offered, scalar dispatch serves "
            f"~{shift['hieras']['scalar_achieved_per_s']:.0f}/s "
            f"(model {knee['hieras']['model_scalar_capacity_per_s']:.0f}) vs "
            f"~{shift['hieras']['batched_achieved_per_s']:.0f}/s coalesced",
        ),
        claim(
            all(
                a["bounded_queue_p99_ms"] < 0.5 * a["unbounded_queue_p99_ms"]
                for a in admission.values()
            ),
            "admission control bounds the flash-crowd tail: queue-wait p99 "
            f"{ {s: (round(a['unbounded_queue_p99_ms']), round(a['bounded_queue_p99_ms'])) for s, a in admission.items()} } ms "
            f"unbounded vs queue_limit={config['flash_queue_limit']} "
            f"(goodput {admission['hieras']['bounded_goodput']:.0%})",
        ),
        claim(
            all(h["phases"]["total"]["p99"] <= ch["phases"]["total"]["p99"] for ch, h in tail_pairs)
            and any(
                h["phases"]["total"]["p99"] < 0.9 * ch["phases"]["total"]["p99"]
                for ch, h in tail_pairs
            ),
            "the stacks share the front-end capacity knee, but HIERAS serves it "
            "at a lower end-to-end p99 than Chord at every offered rate "
            "(routing latency is the differentiator, capacity is not)",
        ),
        claim(
            all(
                c["failed"] == 0 and c["leave_peers"] > 0 and c["join_peers"] == c["leave_peers"]
                for c in metrics["churn"].values()
            ),
            "the service serves through a leave wave + rejoin "
            f"({metrics['churn']['hieras']['leave_peers']} peers churned) with zero "
            "failed requests — membership is just another queued operation",
        ),
    ]
    return "\n".join(lines)
