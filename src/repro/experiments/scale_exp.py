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
from repro.engine.stream import stream_batch_route
from repro.experiments.bench import BenchRun, claim, rate_per_s
from repro.experiments.config import SimConfig
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
SMOKE_SIZES = (2048, 8192)

#: How far a run may raise the process's peak RSS (MiB) — the rise, as
#: what the process had peaked at before the bench began is not the
#: bench's.  Sized for ``--full``: ≈1 165 measured with packed ``uint8``
#: stub blocks, plus a ≈235 MB margin — less than the 320 MB the packing
#: saves at N=10⁶, so square blocks (≈1 470) fail the gate.
PEAK_RSS_BOUND_MB = 1400.0


def _lookups_for(n_peers: int, *, full: bool) -> int:
    if not full:
        return 100_000
    return 10_000_000 if n_peers >= 1_000_000 else 1_000_000


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


def run_bench(
    *,
    full: bool = False,
    seed: int = 42,
    sizes: tuple[int, ...] | None = None,
) -> dict[str, object]:
    """Run the scale benchmark; returns the ``BENCH_scale`` document.

    ``full=True`` runs the ROADMAP deliverable — N up to 1 000 000
    peers with 10⁷ streamed lookups per stack at the top size; the
    default is a CI-sized smoke (N ≤ 8192, 10⁵ lookups) exercising the
    identical code paths.
    """
    if sizes is None:
        sizes = FULL_SIZES if full else SMOKE_SIZES

    bench = BenchRun(SCHEMA, full=full, seed=seed)
    bench.phases["start"] = {"peak_rss_mb": peak_rss_mb()}
    cells: dict[str, dict[str, object]] = {}

    for n_peers in sizes:
        wave_size = max(8, min(1024, n_peers // 16))
        n_lookups = _lookups_for(n_peers, full=full)

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
            batch = batch_route(
                bundle.chord, trace.sources[:probe], trace.keys[:probe]
            )
            scalar = batch_route(
                bundle.chord,
                trace.sources[:probe],
                trace.keys[:probe],
                engine="scalar",
            )
            batch_h = batch_route(
                bundle.hieras, trace.sources[:probe], trace.keys[:probe]
            )
            scalar_h = batch_route(
                bundle.hieras,
                trace.sources[:probe],
                trace.keys[:probe],
                engine="scalar",
            )
            engines_agree = bool(
                np.array_equal(batch.owner, scalar.owner)
                and np.array_equal(batch.hops, scalar.hops)
                and np.array_equal(batch.latency_ms, scalar.latency_ms)
                and np.array_equal(batch_h.owner, scalar_h.owner)
                and np.array_equal(batch_h.hops, scalar_h.hops)
                and np.array_equal(batch_h.latency_ms, scalar_h.latency_ms)
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
    the scalar loop on the spot-checked cell.  Build times and
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
                "mean_hops_hieras": round(cell["hieras"]["mean_hops"], 3),
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
            rss_rise <= PEAK_RSS_BOUND_MB,
            f"the run raises the process's peak RSS by {rss_rise:.0f} MB through "
            f"the largest cell (bound {PEAK_RSS_BOUND_MB:.0f} MB, sized for N=10⁶ at --full)",
        ),
    ]
    return "\n".join(lines)
