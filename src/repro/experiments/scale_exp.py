"""Million-peer scale benchmark: build, churn, and route at N up to 10⁶.

One run, per network size, on both stacks:

1. **build** — :func:`repro.experiments.runner.build_bundle` uncached
   (the substrate dies with its bundle) timed end-to-end;
2. **membership waves** — remove then revive a seeded wave of peers
   through the incremental splice path, verifying with the stacks' own
   counters that *zero* full rebuilds happened, then force a full
   :meth:`rebuild` and check the spliced state is **bit-identical** to
   the from-scratch state (the incremental contract's acceptance pin);
3. **lookups** — a seeded trace streamed through
   :func:`repro.engine.stream.stream_batch_route` in bounded chunks;
   integer hop statistics and the order-weighted owner checksum land in
   ``metrics`` (chunk-size invariant), and the two stacks' checksums
   must agree — Chord and HIERAS resolve every key to the same global
   owner.

Document layout follows the repo's ``BENCH_*`` convention: wall-clock
and peak-RSS numbers in the nondeterministic ``phases`` section,
seed-deterministic aggregates in the byte-compared ``metrics`` section.
Registered as the ``scale`` experiment;
``python -m repro.experiments bench scale`` writes the document.
"""

from __future__ import annotations

import gc

import numpy as np

from repro.analysis.tables import format_table
from repro.engine.batch import batch_route
from repro.engine.result import BatchRouteResult
from repro.engine.stream import stream_batch_route
from repro.experiments.bench import BenchRun, claim, rate_per_s
from repro.experiments.config import LANDMARK_STEPS, SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle, make_trace
from repro.scale import hot_state_bytes
from repro.util.proc import peak_rss_mb
from repro.util.rng import RngFactory

__all__ = ["SCHEMA", "report", "run_bench"]

SCHEMA = "repro.bench_scale/1"

#: Streaming chunk size every cell routes with; pinned because the
#: float latency sum is association-sensitive (integer stats and the
#: owner checksum are chunk-size invariant regardless).
CHUNK_SIZE = 65_536

FULL_SIZES = (4096, 65_536, 1_000_000)

#: How far a run may raise the process's peak RSS (MiB) — the rise, as
#: what the process had peaked at before the bench began is not the
#: bench's.  Sized for :data:`FULL_SIZES`: ≈1 165 measured with packed ``uint8``
#: stub blocks, plus a ≈235 MB margin — less than the 320 MB the packing
#: saves at N=10⁶, so square blocks (≈1 470) fail the gate.
PEAK_RSS_BOUND_MB = 1400.0

#: The fidelity gate: HIERAS ÷ Chord mean latency in every cell the
#: landmark rule grows (N ≥ 4 096, every cell of :data:`FULL_SIZES`):
#: the worst held-out cell of the rule's fit (0.515, DESIGN.md §5) + 0.05.
LATENCY_RATIO_BOUND = 0.565

#: The gate below 4 096 peers, where the paper's 4 landmarks stay.
PAPER_LANDMARKS_RATIO_BOUND = 0.75


def _lookups_for(n_peers: int) -> int:
    if n_peers >= 1_000_000:
        return 10_000_000
    return 1_000_000 if n_peers >= 4096 else 100_000


def _snapshot(bundle: SimulationBundle) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Every ring array of both stacks, labelled (rings are immutable,
    so holding the arrays *is* the pre-rebuild snapshot)."""
    hieras = bundle.hieras
    rings = [("chord", bundle.chord.ring), ("global", hieras.global_ring)]
    for layer in range(2, hieras.depth + 1):
        rings += [(f"{layer}:{name}", ring) for name, ring in hieras.rings_at_layer(layer).items()]
    return [(label, ring.ids, ring.peers) for label, ring in rings]


def _matches(bundle: SimulationBundle, snap: list[tuple[str, np.ndarray, np.ndarray]]) -> bool:
    """Whether the current (rebuilt) state equals the snapshot exactly."""
    now = _snapshot(bundle)
    return len(now) == len(snap) and all(
        a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
        for a, b in zip(snap, now)
    )


def _ring_shares(bundle: SimulationBundle) -> dict[str, object]:
    """How the lowest layer splits the peers: ring count, median ring
    size and the largest ring's share of all peers."""
    sizes = bundle.hieras.ring_sizes(bundle.hieras.depth)
    return {
        "lowest_rings": len(sizes),
        "median_ring_size": float(np.median(sizes)),
        "largest_ring_share": float(sizes.max()) / bundle.config.n_peers,
    }


def _latency_ratio(cell: dict[str, object]) -> float:
    return cell["hieras"]["mean_latency_ms"] / cell["chord"]["mean_latency_ms"]


def _ratio_bound(cell: dict[str, object]) -> float:
    if cell["n_peers"] >= LANDMARK_STEPS[0][0]:
        return LATENCY_RATIO_BOUND
    return PAPER_LANDMARKS_RATIO_BOUND


def _results_agree(a: BatchRouteResult, b: BatchRouteResult) -> bool:
    """Exact equality of two engines' owners, hops, per-layer hops and
    latencies — floats with ``==``, as the engines promise bit-identical
    sums, not merely close ones."""
    return all(
        np.array_equal(x, y)
        for x, y in (
            (a.owner, b.owner),
            (a.hops, b.hops),
            (a.latency_ms, b.latency_ms),
            (a.hops_per_layer, b.hops_per_layer),
            (a.low_layer_latency_ms(), b.low_layer_latency_ms()),
        )
    )


def run_bench(
    *,
    seed: int = 42,
    sizes: tuple[int, ...] = FULL_SIZES,
) -> dict[str, object]:
    """Run the scale benchmark; returns the ``BENCH_scale`` document.

    The default ``sizes`` are the ROADMAP deliverable — N up to
    1 000 000 peers with 10⁷ streamed lookups per stack at the top
    size; smaller ``sizes`` (10⁵ lookups below N=4096) exercise the
    identical code paths in seconds.
    """
    bench = BenchRun(SCHEMA, seed=seed)
    bench.phases["start"] = {"peak_rss_mb": peak_rss_mb()}
    cells: dict[str, dict[str, object]] = {}

    for n_peers in sizes:
        wave_size = max(8, min(1024, n_peers // 16))
        n_lookups = _lookups_for(n_peers)

        with bench.timed(f"build_n{n_peers}") as phase:
            bundle = build_bundle(SimConfig(model="ts", n_peers=n_peers, seed=seed), cache=False)
        phase["peak_rss_mb"] = peak_rss_mb()

        # --- membership waves through the incremental splice path ----
        wave_rng = RngFactory(seed).get("scale-wave")
        wave = np.sort(wave_rng.choice(n_peers, size=wave_size, replace=False))
        builds_before = (bundle.chord.rebuild_count, bundle.hieras.rebuild_count)
        with bench.timed(f"wave_n{n_peers}", "remove_wall_ms"):
            bundle.chord.remove_peers(wave.tolist())
            bundle.hieras.remove_peers(wave.tolist())
        with bench.timed(f"wave_n{n_peers}", "revive_wall_ms"):
            bundle.chord.revive_peers(wave.tolist())
            bundle.hieras.revive_peers(wave.tolist())
        full_rebuilds_during_waves = (
            bundle.chord.rebuild_count - builds_before[0],
            bundle.hieras.rebuild_count - builds_before[1],
        )

        # --- bit-identical-to-rebuild check (and rebuild reference) --
        snap = _snapshot(bundle)
        with bench.timed(f"rebuild_n{n_peers}"):
            bundle.chord.rebuild()
            bundle.hieras.rebuild()
        incremental_matches = _matches(bundle, snap)

        # --- streamed lookups ----------------------------------------
        trace = make_trace(bundle, n_lookups)
        stacks = {}
        for stack, network in (("chord", bundle.chord), ("hieras", bundle.hieras)):
            with bench.timed(f"{stack}_lookup_n{n_peers}") as phase:
                stats = stream_batch_route(
                    network, trace.sources, trace.keys, chunk_size=CHUNK_SIZE
                )
            phase["lookups_per_s"] = rate_per_s(n_lookups, phase["wall_ms"])
            phase["peak_rss_mb"] = peak_rss_mb()
            stacks[stack] = stats.as_dict()

        # --- batch-vs-scalar spot check at the smallest size ---------
        engines_agree = None
        if n_peers == min(sizes):
            probe = min(2000, n_lookups)
            sources, keys = trace.sources[:probe], trace.keys[:probe]
            engines_agree = all(
                _results_agree(
                    batch_route(network, sources, keys),
                    batch_route(network, sources, keys, engine="scalar"),
                )
                for network in (bundle.chord, bundle.hieras)
            )

        latency = bundle.peer_latency.model.stats()
        cells[f"n{n_peers}"] = {
            "n_peers": n_peers,
            "lookups": n_lookups,
            "chunk_size": CHUNK_SIZE,
            "wave_size": wave_size,
            "chord": stacks["chord"],
            "hieras": stacks["hieras"],
            "stacks_agree_owners": bool(
                stacks["chord"]["owner_checksum"] == stacks["hieras"]["owner_checksum"]
            ),
            "engines_agree": engines_agree,
            "n_landmarks": bundle.config.n_landmarks,
            "rings": _ring_shares(bundle),
            "memory": {
                **hot_state_bytes(bundle),
                "latency_bytes": latency["resident_bytes"],
                "latency_block_fills": latency["cache_misses"],
            },
            "membership": {
                "full_rebuilds_during_waves_chord": full_rebuilds_during_waves[0],
                "full_rebuilds_during_waves_hieras": full_rebuilds_during_waves[1],
                "incremental_waves_chord": bundle.chord.incremental_waves,
                "incremental_waves_hieras": bundle.hieras.incremental_waves,
                "rings_spliced_hieras": bundle.hieras.rings_spliced,
                "incremental_matches_rebuild": incremental_matches,
            },
        }
        del bundle, trace
        gc.collect()

    return bench.document(
        config={"sizes": list(sizes), "chunk_size": CHUNK_SIZE},
        metrics={"cells": cells},
    )


def report(doc: dict[str, object]) -> str:
    """Render the scale report from its document.

    The claims pin the deterministic contracts of the scale work:
    membership waves go through the splice path (zero full rebuilds),
    the spliced state is bit-identical to a from-scratch rebuild, both
    stacks' streamed lookups resolve every key to the same global owner
    (equal order-weighted checksums), and the batch engine agrees with
    the scalar loop on the spot-checked cell, and HIERAS keeps its
    latency win (:data:`LATENCY_RATIO_BOUND`; :data:`PAPER_LANDMARKS_RATIO_BOUND`
    below the landmark rule's first step) in every cell.  Build times and
    lookups/sec are printed from ``phases`` for the record but never
    gate the run; peak RSS, the quiet host metric, does.  The committed
    BENCH_scale.json holds the N=10⁶ acceptance evidence.
    """
    cells = doc["metrics"]["cells"]
    phases = doc["phases"]
    rss_rise = phases["peak_rss"]["peak_rss_mb"] - phases["start"]["peak_rss_mb"]
    rows = []
    for name, cell in cells.items():
        n = cell["n_peers"]
        mem = cell["membership"]
        rows.append(
            {
                "cell": name,
                "lookups": cell["lookups"],
                "stacks_agree": "yes" if cell["stacks_agree_owners"] else "NO",
                "inc==rebuild": "yes" if mem["incremental_matches_rebuild"] else "NO",
                "landmarks": cell["n_landmarks"],
                "mean_hops_hieras": round(cell["hieras"]["mean_hops"], 3),
                "hieras/chord": round(_latency_ratio(cell), 3),
                "largest_ring_%": round(100 * cell["rings"]["largest_ring_share"], 1),
                "build_s": round(phases[f"build_n{n}"]["wall_ms"] / 1000.0, 2),
                "chord_per_s": round(phases[f"chord_lookup_n{n}"]["lookups_per_s"]),
                "hieras_per_s": round(phases[f"hieras_lookup_n{n}"]["lookups_per_s"]),
                "peak_rss_mb": round(phases[f"hieras_lookup_n{n}"]["peak_rss_mb"]),
            }
        )
    lines = [
        f"seed {doc['config']['seed']}; agreement bits are seed-deterministic, "
        "build/lookup rates and RSS are wall-clock",
        format_table(rows),
        "",
        claim(
            all(
                c["membership"]["full_rebuilds_during_waves_chord"] == 0
                and c["membership"]["full_rebuilds_during_waves_hieras"] == 0
                for c in cells.values()
            ),
            "membership waves never trigger a full rebuild on either stack "
            "(splice path only, pinned by the stacks' own rebuild counters)",
        ),
        claim(
            all(
                c["membership"]["incremental_matches_rebuild"]
                for c in cells.values()
            ),
            "after remove+revive waves, the incremental state is "
            "bit-identical to a from-scratch rebuild (every ring id, peer, "
            "and ring name)",
        ),
        claim(
            all(c["stacks_agree_owners"] for c in cells.values()),
            "Chord and HIERAS streamed lookups resolve every key to the "
            "same owner (equal order-weighted checksums per cell)",
        ),
        claim(
            all(c["engines_agree"] is not False for c in cells.values()),
            "the batch engine matches the scalar loop array-for-array on "
            "both stacks at the spot-checked (smallest) size",
        ),
        claim(
            all(_latency_ratio(c) <= _ratio_bound(c) for c in cells.values()),
            "HIERAS's mean lookup latency is at most "
            f"{LATENCY_RATIO_BOUND} × Chord's in every cell from "
            f"{LANDMARK_STEPS[0][0]} peers and {PAPER_LANDMARKS_RATIO_BOUND} × below "
            "(the paper's headline, held at every N)",
        ),
        claim(
            rss_rise <= PEAK_RSS_BOUND_MB,
            f"the run raises the process's peak RSS by {rss_rise:.0f} MB through "
            f"the largest cell (bound {PEAK_RSS_BOUND_MB:.0f} MB, sized for N=10⁶)",
        ),
    ]
    return "\n".join(lines)
