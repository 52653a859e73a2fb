"""The cache-effect experiment: Zipf workloads against ``repro.cache``.

File-sharing traffic — the workload the paper's introduction motivates
HIERAS with — is heavily skewed: a few hot files draw most requests.
This module quantifies what CFS-style path caching (DESIGN.md §9) buys
on such a workload, over both trace-driven stacks:

* **hop/latency reduction** — mean hops and mean total latency of a
  cached run vs the *same trace* through a ``capacity=0`` pass-through
  (identical accounting, no cache), swept over Zipf exponent × cache
  capacity;
* **hotspot mitigation** — the owner-load-concentration metric
  (max/mean requests served per node): without caching the hot keys'
  owners serve almost everything, with caching the load spreads across
  path-cache holders;
* **staleness under churn** — cells with a mid-trace crash fraction run
  ``route_cached_lossy`` under a :class:`~repro.faults.FaultInjector`,
  so cached-but-crashed owners must be detected, evicted and routed
  around.

The pipeline mirrors ``repro.experiments.baseline``: one JSON document
(``BENCH_cache.json``) with a nondeterministic ``phases`` section (wall
times) and a deterministic ``metrics`` section — re-running the same
seed reproduces ``metrics`` byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.cache import CachedNetwork, CachePolicy
from repro.engine import batch_route, supports_batch
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle
from repro.faults import FaultInjector, FaultPlan
from repro.util.rng import RngFactory
from repro.workloads.requests import RequestTrace, generate_requests

__all__ = [
    "SCHEMA",
    "make_zipf_trace",
    "report",
    "run_bench",
    "run_cache_cell",
]

SCHEMA = "repro.bench_cache/1"

#: The "realistic capacity" headline cell (acceptance gate): CFS uses
#: caches orders of magnitude smaller than the catalogue.
HEADLINE_EXPONENT = 0.95
HEADLINE_CAPACITY = 64


def make_zipf_trace(
    bundle: SimulationBundle,
    n_requests: int,
    *,
    catalog_size: int,
    zipf_exponent: float,
) -> RequestTrace:
    """A skewed request trace over a hashed file catalogue.

    Seeded from the bundle's master seed (stream ``cache-requests``),
    so every cell that shares (seed, n_requests, catalogue, exponent)
    replays the identical trace.
    """
    rngs = RngFactory(bundle.config.seed)
    return generate_requests(
        n_requests,
        bundle.config.n_peers,
        bundle.space,
        seed=rngs.get("cache-requests"),
        key_dist="zipf",
        catalog_size=catalog_size,
        zipf_exponent=zipf_exponent,
    )


def run_cache_cell(
    bundle: SimulationBundle,
    trace: RequestTrace,
    *,
    stack: str,
    policy: CachePolicy,
    churn_fraction: float = 0.0,
    seed: int = 0,
    engine: str = "batch",
) -> dict[str, float]:
    """Replay one trace through one cached stack; returns cell metrics.

    ``stack`` selects the inner network (``"chord"`` / ``"hieras"``).
    A fresh :class:`CachedNetwork` is built per cell, so cells are
    independent; each request advances the cache clock (and, under
    churn, the fault clock) by 1 ms.  ``churn_fraction > 0`` crashes
    that fraction of peers halfway through the trace and switches the
    loop to ``route_cached_lossy`` — cached entries pointing at crashed
    owners are then evicted on failed contact and lookups fall back to
    failure-aware routing.

    ``engine="batch"`` accelerates only the uncached baselines
    (``capacity=0``, no churn): with no cache state every lookup is an
    independent miss, so the cell reduces to one vectorized
    :func:`~repro.engine.batch_route` call plus the same accounting.
    Cells with an actual cache (or churn) stay on the scalar loop —
    their per-request cache/fault state is inherently sequential.
    """
    inner = bundle.chord if stack == "chord" else bundle.hieras
    net = CachedNetwork(inner, policy)
    if (
        engine == "batch"
        and policy.capacity == 0
        and churn_fraction == 0.0
        and supports_batch(inner)
    ):
        return _run_uncached_cell_batch(net, trace)
    n_requests = len(trace)
    injector: FaultInjector | None = None
    if churn_fraction > 0.0:
        plan = FaultPlan(seed=seed).crash_fraction(
            at_ms=n_requests / 2.0, fraction=churn_fraction
        )
        injector = FaultInjector(plan, inner.n_peers)
    attempted = succeeded = 0
    skipped_dead_source = 0
    total_hops = 0
    total_ms = total_link_ms = 0.0
    timeouts = 0
    for i, (src, key) in enumerate(trace):
        t = float(i)
        net.advance_to(t)
        src, key = int(src), int(key)
        if injector is None:
            result = net.route_cached(src, key)
        else:
            injector.advance_to(t)
            if injector.state.is_dead(src):
                skipped_dead_source += 1  # a dead peer originates nothing
                continue
            result = net.route_cached_lossy(src, key, injector=injector)
        attempted += 1
        timeouts += result.timeouts
        total_ms += result.total_latency_ms
        if result.success:
            succeeded += 1
            total_hops += result.hops
            total_link_ms += result.latency_ms
    load = net.load_summary()
    return {
        "attempted": float(attempted),
        "skipped_dead_source": float(skipped_dead_source),
        "success_rate": succeeded / attempted if attempted else 0.0,
        "mean_hops": total_hops / succeeded if succeeded else 0.0,
        "mean_link_latency_ms": total_link_ms / succeeded if succeeded else 0.0,
        "mean_total_latency_ms": total_ms / attempted if attempted else 0.0,
        "timeouts_per_lookup": timeouts / attempted if attempted else 0.0,
        **{f"cache_{k}": v for k, v in net.stats.as_dict().items()},
        **{f"load_{k}": v for k, v in load.items()},
    }


def _run_uncached_cell_batch(
    net: CachedNetwork, trace: RequestTrace
) -> dict[str, float]:
    """The ``capacity=0`` fault-free cell through the batch engine.

    With capacity 0 every ``route_cached`` call is a miss over the inner
    network and nothing is ever inserted, so the scalar loop's per-cell
    metrics collapse to pure functions of the batch result.  The float
    accumulations replay the scalar loop's left-to-right ``+=`` order so
    the returned dict is bit-identical (pinned by ``tests/test_engine.py``).
    """
    result = batch_route(net.inner, trace.sources, trace.keys)
    n = len(trace)
    total_hops = int(result.hops.sum())
    total_link_ms = 0.0
    for lat in result.latency_ms.tolist():
        total_link_ms += lat
    # total_latency_ms adds a zero retry term per request; x + 0.0 == x
    # for the non-negative link latencies, so the sum is the same value.
    net.stats.lookups = n
    net.stats.misses = n
    served = np.bincount(result.owner)
    for peer in np.flatnonzero(served).tolist():
        net._served[int(peer)] = int(served[peer])
    load = net.load_summary()
    return {
        "attempted": float(n),
        "skipped_dead_source": 0.0,
        "success_rate": n / n if n else 0.0,
        "mean_hops": total_hops / n if n else 0.0,
        "mean_link_latency_ms": total_link_ms / n if n else 0.0,
        "mean_total_latency_ms": total_link_ms / n if n else 0.0,
        "timeouts_per_lookup": 0 / n if n else 0.0,
        **{f"cache_{k}": v for k, v in net.stats.as_dict().items()},
        **{f"load_{k}": v for k, v in load.items()},
    }


def _reduction(base: dict[str, float], cell: dict[str, float], key: str) -> float:
    """Percent reduction of ``key`` vs the uncached baseline cell."""
    if not base[key]:
        return 0.0
    return 100.0 * (base[key] - cell[key]) / base[key]


def run_bench(
    *,
    full: bool = False,
    seed: int = 42,
    n_peers: int | None = None,
    n_requests: int | None = None,
    catalog_size: int | None = None,
    capacities: tuple[int, ...] = (4, 16, 64),
    exponents: tuple[float, ...] = (0.7, 0.95, 1.2),
    churn_fraction: float = 0.15,
    engine: str = "batch",
) -> dict[str, object]:
    """Run the full sweep once; returns the BENCH_cache document.

    Sweep shape (per stack): every exponent × capacity fault-free, plus
    — at the headline exponent — the churn cells and one TTL+LRU cell.
    Each (exponent, stack) group carries its own ``capacity=0`` baseline
    replaying the identical trace, so reductions are paired.  ``engine``
    selects the routing engine for the uncached baselines (see
    :func:`run_cache_cell`); the ``metrics`` section is bit-identical
    either way.
    """
    if n_peers is None:
        n_peers = 4000 if full else 1000
    if n_requests is None:
        n_requests = 20_000 if full else 6_000
    if catalog_size is None:
        catalog_size = 10_000 if full else 2_000

    bench = BenchRun(SCHEMA, full=full, seed=seed)
    with bench.timed("build"):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=seed)
        )

    cells: list[dict[str, object]] = []
    headline: dict[str, dict[str, float]] = {}

    def cell_row(
        stack: str,
        exponent: float,
        policy: CachePolicy,
        metrics: dict[str, float],
        *,
        churn: float = 0.0,
    ) -> dict[str, object]:
        return {
            "stack": stack,
            "zipf_exponent": exponent,
            "capacity": policy.capacity,
            "eviction": policy.eviction,
            "cache_values": policy.cache_values,
            "churn_fraction": churn,
            **metrics,
        }

    for stack in ("chord", "hieras"):
        with bench.timed(f"{stack}_sweep"):
            for exponent in exponents:
                trace = make_zipf_trace(
                    bundle, n_requests,
                    catalog_size=catalog_size, zipf_exponent=exponent,
                )
                off = CachePolicy(capacity=0)
                base = run_cache_cell(
                    bundle, trace, stack=stack, policy=off, engine=engine
                )
                cells.append(cell_row(stack, exponent, off, base))
                for capacity in capacities:
                    policy = CachePolicy(capacity=capacity)
                    cell = run_cache_cell(bundle, trace, stack=stack, policy=policy)
                    row = cell_row(stack, exponent, policy, cell)
                    row["hop_reduction_percent"] = _reduction(base, cell, "mean_hops")
                    row["latency_reduction_percent"] = _reduction(
                        base, cell, "mean_total_latency_ms"
                    )
                    cells.append(row)
                    if (
                        exponent == HEADLINE_EXPONENT
                        and capacity == HEADLINE_CAPACITY
                    ):
                        headline[stack] = {
                            "hop_reduction_percent": float(
                                row["hop_reduction_percent"]
                            ),
                            "latency_reduction_percent": float(
                                row["latency_reduction_percent"]
                            ),
                            "hit_rate": cell["cache_hit_rate"],
                            "uncached_concentration": base["load_concentration"],
                            "cached_concentration": cell["load_concentration"],
                            "uncached_max_served": base["load_max_served"],
                            "cached_max_served": cell["load_max_served"],
                        }
        with bench.timed(f"{stack}_churn"):
            # Shortcut-only caching (cache_values=False): every hit must
            # *contact* the cached owner, so crashed owners are detected,
            # evicted and routed around — the staleness story, measured.
            trace = make_zipf_trace(
                bundle, n_requests,
                catalog_size=catalog_size, zipf_exponent=HEADLINE_EXPONENT,
            )
            for capacity in (0, HEADLINE_CAPACITY):
                policy = CachePolicy(capacity=capacity, cache_values=False)
                cell = run_cache_cell(
                    bundle, trace, stack=stack, policy=policy,
                    churn_fraction=churn_fraction, seed=seed,
                )
                cells.append(
                    cell_row(
                        stack, HEADLINE_EXPONENT, policy, cell, churn=churn_fraction
                    )
                )
            # One TTL+LRU cell: entries age out, bounding staleness.
            ttl_policy = CachePolicy(
                capacity=HEADLINE_CAPACITY, eviction="ttl-lru",
                ttl_ms=n_requests / 8.0, cache_values=False,
            )
            cell = run_cache_cell(
                bundle, trace, stack=stack, policy=ttl_policy,
                churn_fraction=churn_fraction, seed=seed,
            )
            cells.append(
                cell_row(
                    stack, HEADLINE_EXPONENT, ttl_policy, cell, churn=churn_fraction
                )
            )

    return bench.document(
        config={
            "n_peers": n_peers,
            "n_requests": n_requests,
            "catalog_size": catalog_size,
            "capacities": list(capacities),
            "exponents": list(exponents),
            "churn_fraction": churn_fraction,
            "headline_exponent": HEADLINE_EXPONENT,
            "headline_capacity": HEADLINE_CAPACITY,
            "engine": engine,
        },
        metrics={"cells": cells, "headline": headline},
    )


def report(doc: dict[str, object]) -> str:
    """Render the cache-effect report from its document.

    Hop/latency reduction vs the paired uncached baseline, cache hit
    rates, and the owner-load-concentration metric per fault-free LRU
    cell, then the churn/TTL cells; every claim reads ``metrics`` only.
    """
    metrics = doc["metrics"]
    cells = metrics["cells"]
    headline = metrics["headline"]
    rows = []
    for c in cells:
        if c["churn_fraction"] or c["eviction"] != "lru":
            continue
        rows.append(
            {
                "stack": c["stack"],
                "zipf_s": c["zipf_exponent"],
                "capacity": c["capacity"],
                "hops": round(c["mean_hops"], 3),
                "latency_ms": round(c["mean_total_latency_ms"], 1),
                "hit_%": round(100 * c["cache_hit_rate"], 1),
                "latency_cut_%": round(c.get("latency_reduction_percent", 0.0), 1),
                "load_conc": round(c["load_concentration"], 1),
            }
        )
    churn_rows = [
        {
            "stack": c["stack"],
            "eviction": c["eviction"],
            "capacity": c["capacity"],
            "success_%": round(100 * c["success_rate"], 2),
            "latency_ms": round(c["mean_total_latency_ms"], 1),
            "stale_evictions": int(c["cache_stale_evictions"]),
            "expirations": int(c["cache_expirations"]),
        }
        for c in cells
        if c["churn_fraction"]
    ]

    def _hit_rates(stack: str) -> list[float]:
        return [
            c["cache_hit_rate"]
            for c in cells
            if c["stack"] == stack
            and c["zipf_exponent"] == HEADLINE_EXPONENT
            and not c["churn_fraction"]
            and c["eviction"] == "lru"
            and c["capacity"] > 0
        ]

    reductions = {s: headline[s]["latency_reduction_percent"] for s in headline}
    hit_monotone = all(
        all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))
        for rates in (_hit_rates("chord"), _hit_rates("hieras"))
    )
    spread_ok = all(
        headline[s]["cached_concentration"] < 0.5 * headline[s]["uncached_concentration"]
        for s in headline
    )
    churn_ok = all(r["success_%"] >= 99.0 for r in churn_rows) and any(
        r["stale_evictions"] > 0 or r["expirations"] > 0 for r in churn_rows
    )
    config = doc["config"]
    lines = [
        f"{config['n_peers']} peers, TS model, {config['n_requests']} Zipf requests "
        f"over a {config['catalog_size']}-file catalogue",
        format_table(rows),
        "",
        f"under churn (crash {config['churn_fraction']:.0%} mid-trace, "
        "shortcut-only caching):",
        format_table(churn_rows),
        "",
        claim(
            all(r >= 20.0 for r in reductions.values()),
            f"headline cell (zipf={HEADLINE_EXPONENT}, capacity="
            f"{HEADLINE_CAPACITY}): mean latency drops "
            f"{ {s: round(r, 1) for s, r in reductions.items()} }% vs uncached "
            "— well past the 20% gate on both stacks",
        ),
        claim(
            hit_monotone,
            "hit rate grows monotonically with cache capacity on both stacks",
        ),
        claim(
            spread_ok,
            "caching cuts owner-load concentration (max/mean served) by more "
            "than half — hot-key owners stop being hotspots",
        ),
        claim(
            churn_ok,
            f"with {config['churn_fraction']:.0%} of peers crashed, every lookup "
            "still succeeds; stale cached owners are detected and evicted (or "
            "TTL-expired) along the way",
        ),
    ]
    return "\n".join(lines)
