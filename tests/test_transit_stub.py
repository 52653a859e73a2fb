"""Tests for the GT-ITM Transit-Stub generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.base import ROUTER_STUB, ROUTER_TRANSIT
from repro.topology.transit_stub import (
    TransitStubParams,
    _connected_random_graph,
    generate_transit_stub,
)


class TestParams:
    def test_router_count_formula(self):
        p = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=3,
            stubs_per_transit_node=4,
            stub_domain_size=5,
        )
        assert p.n_transit_routers == 6
        assert p.n_stub_domains == 24
        assert p.n_routers == 6 + 24 * 5

    def test_for_size_close_to_target(self):
        for target in (320, 1000, 2500, 5000, 10000):
            p = TransitStubParams.for_size(target)
            assert abs(p.n_routers - target) / target < 0.25

    def test_for_size_respects_overrides(self):
        p = TransitStubParams.for_size(1000, n_transit_domains=3)
        assert p.n_transit_domains == 3

    def test_for_size_steps_with_size(self):
        # Paper §4.2: transit configuration changes with network size.
        small = TransitStubParams.for_size(1000)
        large = TransitStubParams.for_size(9000)
        assert large.n_transit_domains > small.n_transit_domains

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TransitStubParams(n_transit_domains=0)
        with pytest.raises(ValueError):
            TransitStubParams(intra_stub_delay=0)
        with pytest.raises(ValueError):
            TransitStubParams(stub_edge_prob=1.5)
        with pytest.raises(ValueError):
            TransitStubParams.for_size(8)


class TestStructure:
    def test_connected(self, small_topology):
        assert small_topology.is_connected()

    def test_router_kinds(self, small_topology):
        p = small_topology.params
        assert (small_topology.kind == ROUTER_TRANSIT).sum() == p.n_transit_routers
        assert (small_topology.kind == ROUTER_STUB).sum() == (
            small_topology.n_routers - p.n_transit_routers
        )

    def test_transit_first_layout(self, small_topology):
        n_transit = small_topology.params.n_transit_routers
        assert np.all(small_topology.kind[:n_transit] == ROUTER_TRANSIT)
        assert np.all(small_topology.kind[n_transit:] == ROUTER_STUB)

    def test_stub_domains_partition_stub_routers(self, small_topology):
        dom = small_topology.stub_domain_of
        assert np.all(dom[small_topology.stub_routers] >= 0)
        assert np.all(dom[small_topology.transit_routers] == -1)
        sizes = np.bincount(dom[dom >= 0])
        assert np.all(sizes == small_topology.params.stub_domain_size)

    def test_single_uplink_per_stub_domain(self, small_topology):
        """Exactly one stub-transit edge per stub domain (the latency
        model's correctness precondition)."""
        topo = small_topology
        uplinks = {}
        for (u, v), d in zip(topo.edges, topo.delays):
            ku, kv = topo.kind[u], topo.kind[v]
            if ku != kv:  # stub<->transit edge
                stub_router = u if ku == ROUTER_STUB else v
                dom = int(topo.stub_domain_of[stub_router])
                uplinks[dom] = uplinks.get(dom, 0) + 1
                assert d == topo.params.stub_transit_delay
        assert len(uplinks) == topo.n_stub_domains
        assert all(count == 1 for count in uplinks.values())

    def test_delay_classes(self, small_topology):
        """Every link carries exactly its tier's paper delay (§4.1)."""
        topo = small_topology
        p = topo.params
        for (u, v), d in zip(topo.edges, topo.delays):
            ku, kv = topo.kind[u], topo.kind[v]
            if ku == ROUTER_TRANSIT and kv == ROUTER_TRANSIT:
                assert d == p.intra_transit_delay
            elif ku == ROUTER_STUB and kv == ROUTER_STUB:
                assert d == p.intra_stub_delay
                assert topo.stub_domain_of[u] == topo.stub_domain_of[v]
            else:
                assert d == p.stub_transit_delay

    def test_border_and_gateway_consistency(self, small_topology):
        topo = small_topology
        for dom in range(topo.n_stub_domains):
            border = int(topo.border_router_of_domain[dom])
            assert topo.stub_domain_of[border] == dom
            gw = int(topo.gateway_of_domain[dom])
            assert topo.kind[gw] == ROUTER_TRANSIT

    def test_local_index_within_domain(self, small_topology):
        topo = small_topology
        for dom in range(min(topo.n_stub_domains, 5)):
            members = np.flatnonzero(topo.stub_domain_of == dom)
            assert sorted(topo.local_index[members].tolist()) == list(
                range(len(members))
            )

    def test_deterministic(self):
        a = generate_transit_stub(TransitStubParams.for_size(320), seed=3)
        b = generate_transit_stub(TransitStubParams.for_size(320), seed=3)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.delays, b.delays)

    @pytest.mark.parametrize(
        "params, seed, n_edges, digest",
        [
            (
                TransitStubParams(),
                1,
                546,
                "e0c6cb039f691fbee01b0d71b3aef689a48ab22828a14794ebbf62c88af78624",
            ),
            (
                TransitStubParams.for_size(5000),
                7,
                8489,
                "e65430712ee0a0b7ec20f7d0249f958df68ce6dfdf02df3b6a6aadfa892f2e13",
            ),
            (  # one-router transit domains, two-router stubs
                TransitStubParams(
                    n_transit_domains=3,
                    transit_nodes_per_domain=1,
                    stubs_per_transit_node=2,
                    stub_domain_size=2,
                ),
                11,
                14,
                "06e14bba95ffd4ed288dace706d347cb23c490bbe0587ffc77080015985a98de",
            ),
        ],
    )
    def test_output_pinned_across_generator_rewrites(self, params, seed, n_edges, digest):
        """sha256 of ``edges`` + ``delays`` recorded from the per-pair
        Python-loop generator (commit f43c38b; the third re-recorded when
        the redundancy-edge options went, which drew nothing at their
        default of 0): a faster generator must draw the same RNG stream
        and emit the same links in the same order."""
        topo = generate_transit_stub(params, seed=seed)
        assert topo.edges.dtype == np.int64 and topo.delays.dtype == np.float64
        assert topo.edges.shape == (n_edges, 2)
        got = hashlib.sha256(topo.edges.tobytes() + topo.delays.tobytes()).hexdigest()
        assert got == digest

    @given(
        st.one_of(st.sampled_from([2, 3, 17, 107, 512, 640]), st.integers(1, 80)),
        st.sampled_from([0.0, 0.3]),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_parents_are_the_scalar_draws(self, n, extra, seed):
        """One vector draw of the tree parents ≡ the scalar loop it
        replaced: the same edges, and the generator left in the same state."""

        def scalar_loop(rng):
            if n == 1:
                return np.empty((0, 2), dtype=np.int64)
            order = rng.permutation(n)
            parents = [int(rng.integers(0, i)) for i in range(1, n)]
            edges = np.column_stack([order[1:], order[parents]]).astype(np.int64)
            if extra > 0.0 and n > 2:
                iu, ju = upper
                mask = rng.random(len(iu)) < extra
                iu, ju = iu[mask], ju[mask]
                new = ~np.isin(iu * n + ju, edges.min(axis=1) * n + edges.max(axis=1))
                edges = np.concatenate([edges, np.column_stack([iu[new], ju[new]])])
            return edges

        upper = np.triu_indices(n, k=1)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _connected_random_graph(n, extra, ours, upper)
        np.testing.assert_array_equal(got, scalar_loop(theirs))
        assert got.dtype == np.int64
        assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)

    def test_seed_changes_graph(self):
        a = generate_transit_stub(TransitStubParams.for_size(320), seed=3)
        b = generate_transit_stub(TransitStubParams.for_size(320), seed=4)
        assert a.n_edges != b.n_edges or not np.array_equal(a.edges, b.edges)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_generated_always_connected(self, domains, per_domain, stubs, size, seed):
        params = TransitStubParams(
            n_transit_domains=domains,
            transit_nodes_per_domain=per_domain,
            stubs_per_transit_node=stubs,
            stub_domain_size=size,
        )
        topo = generate_transit_stub(params, seed=seed)
        assert topo.n_routers == params.n_routers
        assert topo.is_connected()


class TestTopologyBase:
    def test_degree_sums_to_twice_edges(self, small_topology):
        assert small_topology.degree().sum() == 2 * small_topology.n_edges

    def test_shortest_delays_diagonal_zero(self, small_topology):
        d = small_topology.shortest_delays([0, 5])
        assert d[0, 0] == 0.0
        assert d[1, 5] == 0.0

    def test_validation_rejects_bad_edges(self):
        from repro.topology.base import Topology

        with pytest.raises(ValueError):
            Topology(
                n_routers=2,
                edges=np.asarray([[0, 5]]),
                delays=np.asarray([1.0]),
                kind=np.zeros(2, dtype=np.uint8),
            )
        with pytest.raises(ValueError):
            Topology(
                n_routers=2,
                edges=np.asarray([[0, 1]]),
                delays=np.asarray([0.0]),
                kind=np.zeros(2, dtype=np.uint8),
            )
