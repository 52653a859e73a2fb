#!/usr/bin/env python
"""Landmark tuning: how many landmarks, how deep a hierarchy?

Sweeps the two deployment knobs the paper studies in §4.4–§4.5 — the
number of landmark nodes and the hierarchy depth — on one network, and
prints the latency/state trade-off so an operator can pick a
configuration.  Ends with the §3.4-style state-cost summary for the
chosen point.

Run:  python examples/landmark_tuning.py
"""

from repro.analysis.stats import collect_routes, ratio_percent
from repro.analysis.tables import format_table
from repro.core.maintenance import measured_state_cost
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace


def main() -> None:
    n_peers = 1500
    n_requests = 8000

    print("sweep 1: landmark count (depth 2)")
    rows = []
    for n_landmarks in (2, 4, 6, 8, 12):
        config = SimConfig(model="ts", n_peers=n_peers, n_landmarks=n_landmarks, seed=33)
        bundle = build_bundle(config)
        trace = make_trace(bundle, n_requests)
        chord = collect_routes(bundle.chord, trace)
        hieras = collect_routes(bundle.hieras, trace)
        rows.append(
            {
                "landmarks": n_landmarks,
                "rings": len(bundle.hieras.rings_at_layer(2)),
                "latency_vs_chord_%": round(
                    ratio_percent(hieras.mean_latency_ms, chord.mean_latency_ms), 1
                ),
                "hops": round(hieras.mean_hops, 2),
            }
        )
    print(format_table(rows))
    print("paper: too few landmarks ≈ useless; sweet spot ≈ 6-8; flat after\n")

    print("sweep 2: hierarchy depth (6 landmarks)")
    rows = []
    for depth in (2, 3, 4):
        # One substrate (cached), re-binned at each depth by the deployment's own rule.
        bundle = build_bundle(SimConfig(model="ts", n_peers=n_peers, n_landmarks=6, depth=depth, seed=33))
        trace = make_trace(bundle, n_requests)
        chord = collect_routes(bundle.chord, trace)
        sample = collect_routes(bundle.hieras, trace)
        cost = measured_state_cost(bundle.hieras, sample=32)
        rows.append(
            {
                "depth": depth,
                "latency_vs_chord_%": round(
                    ratio_percent(sample.mean_latency_ms, chord.mean_latency_ms), 1
                ),
                "hops": round(sample.mean_hops, 2),
                "state_entries/node": round(cost.total_entries, 1),
                "state_bytes/node": int(cost.total_bytes),
            }
        )
    print(format_table(rows))
    print("paper §4.5: depth 3 adds ~10-16% latency gain, depth 4 little more;")
    print("§3.4: the extra state stays in the hundreds-of-bytes range.")


if __name__ == "__main__":
    main()
