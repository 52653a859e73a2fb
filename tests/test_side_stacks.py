"""The six side stacks: pinned routes, one routing contract, tracing, parameters.

CAN, multi-reality CAN, HIERAS-over-CAN, Pastry, Tapestry and Chord+PFS
each keep only their forwarding and ownership rules; the lookup itself
is :meth:`DHTNetwork._walk` plus :meth:`DHTNetwork._routed`.  This
module pins their exact routes, holds all six to one contract, and
checks that each is traceable.  ``PYTHONPATH=src:. python
tests/test_side_stacks.py`` prints the digests.
"""

import hashlib
import re
from functools import partial

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.core.hieras_can import HierasCanNetwork
from repro.dht.can import CanNetwork, CanParams
from repro.dht.can_realities import MultiRealityCan
from repro.dht.chord import ChordNetwork
from repro.dht.chord_pfs import PfsChordNetwork
from repro.dht.pastry import PastryNetwork, PastryParams
from repro.dht.tapestry import TapestryNetwork, TapestryParams
from repro.cache.policy import CachePolicy
from repro.dht.chord_protocol import ProtocolConfig
from repro.engine import batch_route
from repro.experiments.config import SimConfig, SweepSpec
from repro.experiments.runner import build_bundle
from repro.metrics import MemorySink, MetricsRegistry, SpanRecorder
from repro.faults.retry import RetryPolicy
from repro.replication.policy import ReplicationPolicy
from repro.scenarios.spec import ScenarioParams
from repro.serve.config import ServiceConfig
from repro.topology.transit_stub import TransitStubParams
from repro.util.ids import IdSpace
from repro.workloads.requests import zipf_weights

LABELS = ["can", "can_realities", "hieras_can", "pastry", "tapestry", "chord_pfs"]


def side_stacks(n, space, ids, orders, latency=None, seed=3):
    """The six stacks over ``n`` peers, built as ``ablation_can`` / ``ablation_pastry`` do."""
    peers, params = np.arange(n), CanParams(dimensions=2)
    return {
        "can": CanNetwork(peers, params=params, latency=latency, seed=seed),
        "can_realities": MultiRealityCan(
            peers, realities=3, params=params, latency=latency, seed=seed
        ),
        "hieras_can": HierasCanNetwork(
            n, landmark_orders=orders, params=params, latency=latency, depth=2, seed=seed
        ),
        "pastry": PastryNetwork(space, ids, params=PastryParams(), latency=latency, seed=seed),
        "tapestry": TapestryNetwork(
            space, ids, params=TapestryParams(), latency=latency, seed=seed
        ),
        "chord_pfs": PfsChordNetwork(space, ids, latency=latency, seed=seed),
    }


def deployment_stacks():
    bundle = build_bundle(SimConfig(n_peers=300, seed=7), cache=False)
    return bundle.space, side_stacks(
        bundle.config.n_peers, bundle.space, bundle.node_ids, bundle.orders,
        latency=bundle.peer_latency,
    )


def tiny_stacks(n):
    """The six stacks over ``n`` peers of a 16-bit space, zero latency."""
    rng = np.random.default_rng(n)
    space = IdSpace(16)
    orders = BinningScheme.default_for_depth(2).orders(rng.uniform(0, 300, size=(n, 4)))
    return space, side_stacks(n, space, space.sample_unique_ids(n, rng), orders)


def route_digest(net, space_size, *, seed=3, lookups=1500):
    """SHA-256 over every seeded lookup's owner, path, layers, key and latency."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(lookups):
        src = int(rng.integers(net.n_peers))
        key = int(rng.integers(space_size))
        r = net.route(src, key)
        digest.update(
            repr((r.owner, r.path, r.hops_per_layer, r.key, r.latency_ms.hex())).encode()
        )
    return digest.hexdigest()[:16]


#: Recorded at the commit where each stack still ran its own route
#: loop, guard and ``RouteResult(``: ``SimConfig(n_peers=300, seed=7)``,
#: stacks and lookups seeded 3.  ``hieras_can`` was re-recorded when
#: its loops gained the §3.2 destination check.
PARENT_DIGESTS = {
    "can": "8cd525f6f838b553",
    "can_realities": "2e29409218711494",
    "hieras_can": "8395b88f94eafcbb",
    "pastry": "492b2a5988055e8c",
    "tapestry": "dd4e369acd43f65c",
    "chord_pfs": "f0d95ebc748040a4",
}


@pytest.fixture(scope="module")
def deployment():
    return deployment_stacks()


def test_routes_equal_the_parent_commit(deployment):
    space, stacks = deployment
    assert {label: route_digest(net, space.size) for label, net in stacks.items()} == PARENT_DIGESTS


def owners(net, key):
    return net.owners_of(key) if isinstance(net, MultiRealityCan) else [net.owner_of(key)]


def assert_contract(net, requests):
    """Reaches an owner, starts at the source, takes no hop from an owner,
    and never leaves an owner once it reaches one."""
    for source, key in requests:
        r = net.route(source, key)
        assert r.owner in owners(net, key), (source, key)
        assert r.path[0] == source and r.path[-1] == r.owner
        assert r.hops == len(r.path) - 1 == sum(r.hops_per_layer)
        assert not set(r.path[:-1]) & set(owners(net, key)), (source, key)
        for owner in owners(net, key):
            assert net.route(owner, key).hops == 0


class TestRoutingContract:
    """One contract for all six stacks, from one peer to a deployment."""

    @pytest.mark.parametrize("label", LABELS)
    def test_deployment(self, deployment, label):
        space, stacks = deployment
        net = stacks[label]
        rng = np.random.default_rng(11)
        assert_contract(
            net, [(int(rng.integers(net.n_peers)), int(rng.integers(space.size))) for _ in range(200)]
        )

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("label", LABELS)
    def test_one_and_two_peers(self, label, n):
        space, stacks = tiny_stacks(n)
        keys = [0, 1, 4_097, space.size - 1]
        assert_contract(stacks[label], [(s, k) for s in range(n) for k in keys])

    @pytest.mark.parametrize("label", LABELS)
    def test_a_cyclic_step_stalls(self, label):
        _, stacks = tiny_stacks(2)
        with pytest.raises(ValueError, match=f"{label} routing stalled"):
            stacks[label]._walk(0, lambda peer: 1 - peer)


class TestTracing:
    """Every side stack records one span per lookup, batch or not."""

    @pytest.mark.parametrize("label", LABELS)
    def test_recorder_sums_a_batch(self, deployment, label):
        space, stacks = deployment
        net = stacks[label]
        rng = np.random.default_rng(5)
        sources = rng.integers(net.n_peers, size=16)
        keys = rng.integers(space.size, size=16, dtype=np.uint64)
        registry, sink = MetricsRegistry(), MemorySink()
        net.enable_tracing(SpanRecorder(registry, sinks=[sink]))
        try:
            result = batch_route(net, sources, keys)
        finally:
            net.disable_tracing()
        assert registry.counter(f"{label}.lookups").value == 16
        assert registry.counter(f"{label}.total_hops").value == int(result.hops.sum())
        assert registry.counter(f"{label}.low_layer_hops").value == int(
            result.hops_per_layer[:, :-1].sum()
        )
        assert [span.n_hops for span in sink.spans] == result.hops.tolist()
        assert {span.network for span in sink.spans} == {label}

    def test_hieras_can_spans_name_both_layers(self, deployment):
        _, stacks = deployment
        net = stacks["hieras_can"]
        sink = MemorySink()
        net.enable_tracing(SpanRecorder(MetricsRegistry(), sinks=[sink]))
        try:
            results = [net.route(s, 7_919 * s) for s in range(40)]
        finally:
            net.disable_tracing()
        hops = [hop for span in sink.spans for hop in span.hops]
        assert {hop.layer for hop in hops} == {1, 2}
        for span, r in zip(sink.spans, results):
            assert span.low_layer_hops == r.hops_per_layer[0]
            for hop in span.hops:
                if hop.layer == 1:
                    assert hop.ring == "global"
                else:  # a ring-CAN hop stays inside its ring
                    assert hop.ring == net.orders.order_of(hop.src) == net.orders.order_of(hop.dst)


#: Chord and HIERAS over eight peers of a 16-bit space, binned three layers deep.
EIGHT_CHORD = partial(ChordNetwork, IdSpace(16), np.arange(1, 9, dtype=np.uint64))
EIGHT_HIERAS = partial(
    HierasNetwork,
    IdSpace(16),
    np.arange(1, 9, dtype=np.uint64),
    landmark_orders=BinningScheme.default_for_depth(3).orders(
        np.random.default_rng(8).uniform(0, 300, size=(8, 4))
    ),
)


@pytest.mark.parametrize(
    "build, field, value, bound",
    [
        (PastryParams, "b", 4.0, "in [1, 8]"),
        (PastryParams, "b", True, "in [1, 8]"),
        (PastryParams, "leaf_set", 16.0, ">= 2"),
        (PastryParams, "pns_samples", 2.5, ">= 1"),
        (TapestryParams, "b", 2.0, "in [1, 8]"),
        (TapestryParams, "pns_samples", 2.5, ">= 1"),
        (partial(PfsChordNetwork, IdSpace(16), np.arange(1, 9, dtype=np.uint64)), "pns_samples", 2.5, ">= 1"),
        (partial(PfsChordNetwork, IdSpace(16), np.arange(1, 9, dtype=np.uint64)), "pns_samples", 0, ">= 1"),
        (CanParams, "dimensions", 2.0, "in [1, 8]"),
        (CanParams, "dimensions", False, "in [1, 8]"),
        (partial(MultiRealityCan, np.arange(8)), "realities", 2.0, ">= 1"),
        (partial(MultiRealityCan, np.arange(8)), "realities", True, ">= 1"),
        (partial(MultiRealityCan, np.arange(8)), "realities", 0, ">= 1"),
        (EIGHT_CHORD, "successor_list_r", True, ">= 0"),
        (EIGHT_CHORD, "successor_list_r", 2.0, ">= 0"),
        (EIGHT_HIERAS, "successor_list_r", True, ">= 0"),
        (EIGHT_HIERAS, "depth", 2.0, "in [2, 3]"),
        (EIGHT_HIERAS, "depth", 4, "in [2, 3]"),
        (ReplicationPolicy, "replicas", 1.5, ">= 0"),
        (ReplicationPolicy, "replicas", True, ">= 0"),
        (partial(ReplicationPolicy, consistency="quorum"), "write_quorum", 1.5, "in [1, 3]"),
        (partial(ReplicationPolicy, consistency="quorum"), "read_quorum", True, "in [1, 3]"),
        (CachePolicy, "capacity", 2.7, ">= 0"),
        (partial(zipf_weights, exponent=1.0), "catalog_size", 2.5, ">= 1"),
        (RetryPolicy, "max_retries", 1.5, ">= 0"),
        (RetryPolicy, "successor_fallback", True, ">= 0"),
        (ServiceConfig, "workers", 2.5, ">= 1"),
        (ServiceConfig, "max_batch", True, ">= 1"),
        (ServiceConfig, "queue_limit", 8.5, ">= 1"),
        (ProtocolConfig, "successor_list_len", 2.5, ">= 1"),
        (TransitStubParams, "n_transit_domains", 2.5, ">= 1"),
        (TransitStubParams, "transit_nodes_per_domain", True, ">= 1"),
        (TransitStubParams, "stubs_per_transit_node", 2.5, ">= 1"),
        (TransitStubParams, "stub_domain_size", 4.5, ">= 1"),
        (ScenarioParams, "seed", 1.5, ">= 0"),
        (ScenarioParams, "n_probes", 2.5, ">= 1"),
        (ScenarioParams, "n_outages", True, ">= 1"),
        (ScenarioParams, "catalog_size", 8.5, ">= 1"),
        (ScenarioParams, "replicas", 1.5, ">= 0"),
        (SweepSpec, "n_requests", 100.5, ">= 1"),
    ],
)
def test_structural_parameters_must_be_integers(build, field, value, bound):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer {bound}, got {value!r}")):
        build(**{field: value})


def test_numpy_integers_are_integers():
    assert PastryParams(b=np.int64(2)).b == 2
    assert len(MultiRealityCan(np.arange(8), realities=np.int32(2)).realities) == 2


if __name__ == "__main__":
    space, stacks = deployment_stacks()
    for label, net in stacks.items():
        print(f'    "{label}": "{route_digest(net, space.size)}",')
