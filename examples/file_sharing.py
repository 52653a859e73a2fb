#!/usr/bin/env python
"""File-sharing workload: the application the paper's intro motivates.

Simulates a Napster/Gnutella-style file service on top of HIERAS: a
catalogue of files is published into the DHT (each file key stored at
its owner), then peers issue Zipf-distributed lookups (hot files
dominate, as in real file-sharing traces).  Reports per-lookup latency
for HIERAS vs flat Chord and shows that the win holds under skewed,
repeated workloads — not just the paper's uniform keys.  Then the
service runs under churn: the ``weibull_churn`` campaign (heavy-tailed
sessions, graceful leaves and silent crashes, Zipf gets and puts over a
seeded, replicated catalogue) served on both stacks.

Run:  python examples/file_sharing.py
"""

import numpy as np

from repro import quick_network
from repro.analysis.stats import collect_routes, ratio_percent, summarize
from repro.experiments.config import SimConfig
from repro.scenarios import ScenarioParams, run_scenario_cell
from repro.workloads.requests import generate_requests


class FileService:
    """A minimal keyed file-location service over a DHT network."""

    def __init__(self, network, space):
        self.network = network
        self.space = space
        self.locations: dict[int, list[int]] = {}

    def publish(self, filename: str, holder_peer: int) -> int:
        """Store `holder_peer` as a location for `filename`."""
        key = self.space.hash_key(filename)
        self.locations.setdefault(key, []).append(holder_peer)
        return key

    def lookup(self, source_peer: int, filename: str):
        """Route to the file's owner; returns (locations, route)."""
        key = self.space.hash_key(filename)
        route = self.network.route(source_peer, key)
        return self.locations.get(key, []), route


def main() -> None:
    n_peers = 600
    bundle = quick_network(n_peers=n_peers, n_landmarks=4, seed=11)
    space = bundle.hieras.space
    rng = np.random.default_rng(1)

    # Publish a catalogue: every file has 1-3 random holders.
    service = FileService(bundle.hieras, space)
    catalog = [f"file-{i}" for i in range(2000)]
    for name in catalog:
        for _ in range(int(rng.integers(1, 4))):
            service.publish(name, int(rng.integers(0, n_peers)))

    # One end-to-end lookup, shown in full.
    locations, route = service.lookup(5, "file-42")
    print(f'lookup("file-42") from peer 5:')
    print(f"  owner peer {route.owner}, {route.hops} hops, "
          f"{route.latency_ms:.0f}ms, holders: {locations}")
    print()

    # Bulk Zipf workload through both stacks.
    trace = generate_requests(
        15_000, n_peers, space, seed=2, key_dist="zipf", catalog_size=2000
    )
    chord_sample = collect_routes(bundle.chord, trace)
    hieras_sample = collect_routes(bundle.hieras, trace)

    print("Zipf file-lookup workload (15k requests, 2k files):")
    for name, sample in (("chord", chord_sample), ("hieras", hieras_sample)):
        stats = summarize(sample.latency_ms)
        print(
            f"  {name:>6}: mean {stats['mean']:7.1f}ms  median {stats['median']:7.1f}ms  "
            f"p90 {stats['p90']:7.1f}ms  p99 {stats['p99']:7.1f}ms"
        )
    print(
        f"  HIERAS mean latency is "
        f"{ratio_percent(hieras_sample.mean_latency_ms, chord_sample.mean_latency_ms):.1f}% "
        "of Chord's"
    )

    # ------------------------------------------------------------------
    # The service under churn: one campaign, served on both stacks.
    # ------------------------------------------------------------------
    config = SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=11)
    params = ScenarioParams(seed=3)
    print("\nthe weibull_churn campaign (3 s of heavy-tailed session churn, "
          "Zipf gets and puts, replicas=2, quorum):")
    for stack in ("chord", "hieras"):
        cell = run_scenario_cell(config, "weibull_churn", stack, params)
        notes = cell["notes"]
        print(
            f"  {stack:>6}: {notes['joins']} joins, {notes['graceful_leaves']} leaves, "
            f"{notes['failures']} crashes; probe availability "
            f"{100 * cell['availability_mean']:5.1f}% (min {100 * cell['availability_min']:5.1f}%), "
            f"gets answered {100 * cell['get_success_rate']:5.1f}%, "
            f"keys lost {100 * cell['loss_probability']:4.1f}%"
        )


if __name__ == "__main__":
    main()
