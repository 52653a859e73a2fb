"""Micro-benchmarks of the hot primitives.

These are classic pytest-benchmark timings (many rounds) of the
operations that dominate experiment wall time: single-lookup routing on
each stack, topology generation, latency-model construction and the
binning pass.  They track performance regressions that the figure-level
benches (one timed round each) would hide.
"""

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.topology.latency import TransitStubLatencyModel
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub


@pytest.fixture(scope="module")
def request_batch(midsize_bundle):
    rng = np.random.default_rng(0)
    n = midsize_bundle.config.n_peers
    sources = rng.integers(0, n, 200)
    keys = rng.integers(0, midsize_bundle.space.size, 200)
    return list(zip(sources.tolist(), keys.tolist()))


def test_chord_route_batch(benchmark, midsize_bundle, request_batch):
    """200 Chord lookups on a 2000-peer network."""

    def run():
        total = 0
        for s, k in request_batch:
            total += midsize_bundle.chord.route(s, k).hops
        return total

    total = benchmark(run)
    assert total > 0


def test_hieras_route_batch(benchmark, midsize_bundle, request_batch):
    """200 HIERAS lookups on a 2000-peer network."""

    def run():
        total = 0
        for s, k in request_batch:
            total += midsize_bundle.hieras.route(s, k).hops
        return total

    total = benchmark(run)
    assert total > 0


def test_topology_generation(benchmark):
    """Generate a ~2500-router transit-stub internetwork."""
    params = TransitStubParams.for_size(2500)
    topo = benchmark(generate_transit_stub, params, seed=1)
    assert topo.n_routers == params.n_routers


def test_latency_model_build(benchmark):
    """Build the exact hierarchical latency model (per-stub APSPs)."""
    topo = generate_transit_stub(TransitStubParams.for_size(2500), seed=1)
    model = benchmark(TransitStubLatencyModel, topo)
    assert model.pair(0, 0) == 0.0


def test_latency_queries(benchmark, midsize_bundle):
    """100k vectorised pairwise latency queries."""
    rng = np.random.default_rng(1)
    n = midsize_bundle.config.n_peers
    us = rng.integers(0, n, 100_000)
    vs = rng.integers(0, n, 100_000)
    out = benchmark(midsize_bundle.peer_latency.pairs, us, vs)
    assert len(out) == 100_000


def test_binning_pass(benchmark, midsize_bundle):
    """Quantise 2000 nodes x 4 landmarks into depth-4 orders."""
    distances = midsize_bundle.orders.distances
    scheme = BinningScheme.default_for_depth(4)
    orders = benchmark(scheme.orders, distances)
    assert orders.n_nodes == distances.shape[0]


def test_hieras_network_build(benchmark, midsize_bundle):
    """Construct all rings + directory from ids and orders."""
    from repro.core.hieras import HierasNetwork

    net = benchmark(
        HierasNetwork,
        midsize_bundle.space,
        midsize_bundle.node_ids,
        landmark_orders=midsize_bundle.orders,
        depth=2,
    )
    assert net.n_peers == midsize_bundle.config.n_peers


def test_pastry_table_construction(benchmark, midsize_bundle):
    """Build PNS routing tables for 2000 peers (Pastry baseline)."""
    from repro.dht.pastry import PastryNetwork

    net = benchmark.pedantic(
        PastryNetwork,
        args=(midsize_bundle.space, midsize_bundle.node_ids),
        kwargs={"latency": midsize_bundle.peer_latency, "seed": 1},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert net.n_peers == midsize_bundle.config.n_peers


def test_storage_put_get(benchmark, midsize_bundle):
    """1000 routed puts + 1000 replicated gets through the KV layer."""
    from repro.replication import ReplicatedStore, ReplicationPolicy

    store = ReplicatedStore(midsize_bundle.chord, ReplicationPolicy(replicas=2))
    n_peers = midsize_bundle.config.n_peers

    def run():
        for i in range(1000):
            store.put(i % n_peers, f"file-{i}", i)
        hits = 0
        for i in range(1000):
            hits += store.get((i + 1) % n_peers, f"file-{i}").value is not None
        return hits

    hits = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert hits == 1000


def test_can_construction(benchmark):
    """Build a 1024-member CAN (zone tree + neighbour sets)."""
    import numpy as np

    from repro.dht.can import CanNetwork

    net = benchmark.pedantic(
        CanNetwork, args=(np.arange(1024),), kwargs={"seed": 1},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert net.n_peers == 1024
