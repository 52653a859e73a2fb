"""Tests for latency models, including exactness cross-checks.

What a model answers at different cache budgets, the hand-built stubs
and the pool's counters live in ``tests/test_latency_budgets.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.topology.base import Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.latency import (
    APSPLatencyModel,
    CoordinateLatencyModel,
    NoisyLatencyModel,
    TransitStubLatencyModel,
    _bfs_hops,
    _csr,
    _hop_ms,
    _nearest_hops,
    latency_model_for,
)
from repro.topology.transit_stub import (
    TransitStubParams,
    _connected_random_graph,
    generate_transit_stub,
)
from tests.test_latency_budgets import HAND_BUILT


class TestAPSP:
    @pytest.fixture(scope="class")
    def model_and_topo(self):
        topo = generate_brite(BriteParams(n_nodes=200), seed=1)
        return APSPLatencyModel(topo), topo

    def test_matches_dijkstra(self, model_and_topo, rng):
        model, topo = model_and_topo
        sources = rng.integers(0, topo.n_routers, 4)
        ground = topo.shortest_delays(sources)
        for i, s in enumerate(sources):
            targets = rng.integers(0, topo.n_routers, 100)
            got = model.pairs(np.full(100, s), targets)
            np.testing.assert_allclose(got, np.round(ground[i][targets]))

    def test_symmetric(self, model_and_topo, rng):
        model, topo = model_and_topo
        us = rng.integers(0, topo.n_routers, 200)
        vs = rng.integers(0, topo.n_routers, 200)
        np.testing.assert_array_equal(model.pairs(us, vs), model.pairs(vs, us))

    def test_diagonal_zero(self, model_and_topo):
        model, topo = model_and_topo
        idx = np.arange(topo.n_routers)
        assert model.pairs(idx, idx).max() == 0.0

    def test_triangle_inequality(self, model_and_topo, rng):
        model, topo = model_and_topo
        a = rng.integers(0, topo.n_routers, 300)
        b = rng.integers(0, topo.n_routers, 300)
        c = rng.integers(0, topo.n_routers, 300)
        assert np.all(model.pairs(a, c) <= model.pairs(a, b) + model.pairs(b, c) + 1)

    def test_to_targets_row(self, model_and_topo):
        model, _ = model_and_topo
        targets = np.asarray([0, 5, 10])
        np.testing.assert_array_equal(
            model.to_targets(3, targets), model.pairs(np.full(3, 3), targets)
        )

    def test_chunking_equivalent(self):
        topo = generate_brite(BriteParams(n_nodes=64), seed=2)
        a = APSPLatencyModel(topo, chunk=7)
        b = APSPLatencyModel(topo, chunk=1024)
        us, vs = np.divmod(np.arange(64 * 64), 64)
        np.testing.assert_array_equal(a.pairs(us, vs), b.pairs(us, vs))

    def test_disconnected_raises(self):
        topo = Topology(
            n_routers=3,
            edges=np.asarray([[0, 1]]),
            delays=np.asarray([5.0]),
            kind=np.zeros(3, dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="disconnected"):
            APSPLatencyModel(topo)


class TestTransitStubExact:
    """The hierarchical model must equal Dijkstra on every instance."""

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_equals_dijkstra_random_instances(self, seed):
        params = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=2,
            stubs_per_transit_node=3,
            stub_domain_size=5,
        )
        topo = generate_transit_stub(params, seed=seed)
        model = TransitStubLatencyModel(topo)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, topo.n_routers, 3)
        ground = topo.shortest_delays(sources)
        for i, s in enumerate(sources):
            targets = np.arange(topo.n_routers)
            got = model.pairs(np.full(topo.n_routers, s), targets)
            np.testing.assert_allclose(got, ground[i])

    def test_equals_dijkstra_larger(self, small_topology, small_latency, rng):
        sources = rng.integers(0, small_topology.n_routers, 4)
        ground = small_topology.shortest_delays(sources)
        for i, s in enumerate(sources):
            targets = rng.integers(0, small_topology.n_routers, 150)
            got = small_latency.pairs(np.full(150, s), targets)
            np.testing.assert_allclose(got, ground[i][targets])

    @pytest.mark.parametrize("delay", [100.0, 30.0], ids=["generated", "one_link_off"])
    def test_core_is_dijkstra_bit_for_bit(self, small_topology, delay):
        """Hop counts through the running sum on a one-delay core, scipy's
        Dijkstra once a core link carries another delay."""
        n_transit = len(small_topology.transit_routers)
        delays = small_topology.delays.copy()
        delays[np.flatnonzero((small_topology.edges < n_transit).all(axis=1))[0]] = delay
        topo = dataclasses.replace(small_topology, delays=delays)
        model = TransitStubLatencyModel(topo)
        core = dijkstra(topo.csr()[:n_transit, :n_transit], directed=False)
        np.testing.assert_array_equal(model._core.view(np.uint64), core.ravel().view(np.uint64))
        n = topo.n_routers
        got = model.pairs(np.repeat(np.arange(n), n), np.tile(np.arange(n), n)).reshape(n, n)
        np.testing.assert_allclose(got, topo.shortest_delays(np.arange(n)))

    @pytest.mark.parametrize("delay", [100.0, 30.0], ids=["hop_counts", "dijkstra"])
    def test_a_split_core_is_named(self, small_topology, delay):
        """Without its inter-domain links the core falls apart, whichever way it is searched."""
        per_domain = small_topology.params.transit_nodes_per_domain
        edges = small_topology.edges
        core = (edges < len(small_topology.transit_routers)).all(axis=1)
        keep = ~(core & (edges[:, 0] // per_domain != edges[:, 1] // per_domain))
        delays = small_topology.delays.copy()
        delays[np.flatnonzero(core & keep)[0]] = delay
        topo = dataclasses.replace(small_topology, edges=edges[keep], delays=delays[keep])
        with pytest.raises(ValueError, match="transit core is disconnected"):
            TransitStubLatencyModel(topo)

    def test_pair_scalar(self, small_latency):
        assert small_latency.pair(3, 3) == 0.0
        assert small_latency.pair(0, 1) == small_latency.pair(1, 0)

    def test_requires_transit_stub_topology(self):
        topo = generate_brite(BriteParams(n_nodes=50), seed=1)
        with pytest.raises(ValueError):
            TransitStubLatencyModel(topo)  # type: ignore[arg-type]


def _sub_graph(n, edges, delays):
    """Symmetric CSR of an undirected graph, built the way the models' input is."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    delays = np.broadcast_to(np.asarray(delays, dtype=np.float64), len(edges))
    return Topology(n, edges, delays, kind=np.zeros(n, dtype=np.uint8)).csr()


WORD_BOUNDARY_SIZES = [1, 2, 63, 64, 65, 130]
DELAYS = [5.0, 0.1, 1 / 3]


def _bfs_block(sub, delay):
    """The kernel's ``uint8`` hop counts, read the way the model reads
    them: float32 ms through the running-sum table, ``inf`` for a pair
    the search never reached."""
    n = sub.shape[0]
    hops = np.full((n, n), 201, dtype=np.uint8)  # an evicted block's stale bytes
    levels = _bfs_hops(sub.indptr, sub.indices, hops)
    assert hops.dtype == np.uint8 and hops.max() <= levels
    return np.where(hops == levels, np.float32(np.inf), _hop_ms(delay)[hops])


def _dijkstra32(sub):
    return dijkstra(sub, directed=False).astype(np.float32)


class TestUniformApsp:
    """The bit-parallel BFS block ≡ Dijkstra, bit for bit in the blocks' float32."""

    @given(
        st.sampled_from(WORD_BOUNDARY_SIZES),
        st.sampled_from(DELAYS),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_dijkstra_on_random_connected_graphs(self, n, delay, extra, seed):
        rng = np.random.default_rng(seed)
        edges = _connected_random_graph(n, extra, rng, np.triu_indices(n, k=1))
        sub = _sub_graph(n, edges, delay)
        block = _bfs_block(sub, delay)
        assert block.dtype == np.float32
        np.testing.assert_array_equal(block, _dijkstra32(sub))

    @pytest.mark.parametrize("delay", DELAYS)
    @pytest.mark.parametrize("n", WORD_BOUNDARY_SIZES[1:])
    def test_path_and_star(self, n, delay):
        path = _sub_graph(n, [(i, i + 1) for i in range(n - 1)], delay)  # diameter n - 1
        star = _sub_graph(n, [(0, i) for i in range(1, n)], delay)
        for sub in (path, star):
            np.testing.assert_array_equal(_bfs_block(sub, delay), _dijkstra32(sub))

    @pytest.mark.parametrize("loner", [0, 2, 4])
    def test_router_without_links_is_unreachable(self, loner):
        """An empty CSR row (first, middle, last) must not borrow a
        neighbour's slot from ``reduceat``."""
        others = [r for r in range(5) if r != loner]
        sub = _sub_graph(5, list(zip(others, others[1:])), 5.0)
        block = _bfs_block(sub, 5.0)
        np.testing.assert_array_equal(block, _dijkstra32(sub))
        assert np.isinf(block[loner, others]).all() and np.isinf(block[others, loner]).all()
        assert block[loner, loner] == 0.0

    def test_mixed_delays_match_dijkstra(self):
        """The kernel reads no link weight, so a stub with mixed delays
        must never reach it: the model keeps float32 ms from Dijkstra."""
        topo = HAND_BUILT["mixed_delays"][0]()
        model = TransitStubLatencyModel(topo)
        assert model._pool.dtype == np.float32
        members = np.flatnonzero(topo.stub_domain_of == 1)
        got = model.pairs(np.repeat(members, 4), np.tile(members, 4)).reshape(4, 4)
        np.testing.assert_array_equal(got, _dijkstra32(topo.csr()[members][:, members]))
        assert got[0, 3] == 15.0  # three 5 ms hops beat the direct 20 ms link

    def test_a_search_deeper_than_uint8_counts_is_refused(self):
        """``hops +=`` would wrap silently at level 256."""
        sub = _sub_graph(300, [(i, i + 1) for i in range(299)], 5.0)
        with pytest.raises(ValueError, match="more than 254 hops deep"):
            _bfs_hops(sub.indptr, sub.indices, np.zeros((300, 300), dtype=np.uint8))
        deepest = _sub_graph(255, [(i, i + 1) for i in range(254)], 5.0)  # diameter 254
        np.testing.assert_array_equal(_bfs_block(deepest, 5.0), _dijkstra32(deepest))

    def test_a_wider_dtype_counts_deeper(self):
        """The limit is the dtype's: ``uint16`` counts (the core's) pass 254 hops."""
        sub = _sub_graph(300, [(i, i + 1) for i in range(299)], 1.0)
        hops = np.zeros((300, 300), dtype=np.uint16)
        assert _bfs_hops(sub.indptr, sub.indices, hops) == 300
        np.testing.assert_array_equal(hops, dijkstra(sub, directed=False))


class TestNumpyGraphs:
    """The scipy-free pieces of the transit-stub build, against scipy."""

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_csr_arrays_are_scipys(self, n, seed):
        """Both directions, sorted columns, a repeated link summed, scipy's dtypes."""
        rng = np.random.default_rng(seed)
        edges = np.unique(np.sort(rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))), axis=0)
        edges = edges[edges[:, 0] < edges[:, 1]]
        # Some links listed twice, one of them reversed.  (Three or more
        # listings with mixed delays are summed in an order scipy leaves
        # unspecified, so the last bit may differ there.)
        twice = len(edges) // 4
        edges = np.concatenate([edges, edges[: twice // 2], edges[twice // 2 : twice, ::-1]])
        delays = rng.choice([5.0, 0.1, 7.0], len(edges))
        want = Topology(n, edges, delays, kind=np.zeros(n, dtype=np.uint8)).csr()
        got = _csr(edges[:, 0], edges[:, 1], delays, n)
        for a, b in zip(got, (want.indptr, want.indices, want.data)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @given(
        st.sampled_from(WORD_BOUNDARY_SIZES),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_nearest_hops_is_multi_source_dijkstra_on_unit_links(self, n, extra, seed):
        """Two disjoint random graphs, sources in one or both: unreached is -1."""
        rng = np.random.default_rng(seed)
        upper = np.triu_indices(n, k=1)
        edges = np.concatenate(
            [_connected_random_graph(n, extra, rng, upper), n + _connected_random_graph(n, extra, rng, upper)]
        )
        sub = _sub_graph(2 * n, edges, 1.0)
        sources = rng.choice(2 * n, int(rng.integers(1, 4)))
        want = dijkstra(sub, directed=False, indices=sources, min_only=True)
        got = _nearest_hops(sub.indptr, sub.indices, sources)
        np.testing.assert_array_equal(np.where(got < 0, np.inf, got), want)


class TestModelSelection:
    def test_ts_gets_exact_model(self, small_topology):
        assert isinstance(latency_model_for(small_topology), TransitStubLatencyModel)

    def test_ts_rejects_unexpected_keyword(self, small_topology):
        with pytest.raises(TypeError, match="unexpected keyword argument 'chunk'"):
            latency_model_for(small_topology, chunk=7)
        with pytest.raises(TypeError, match="unexpected keyword argument 'cache_block'"):
            latency_model_for(small_topology, streaming_threshold_bytes=0, cache_block=2)

    def test_general_gets_apsp(self):
        topo = generate_brite(BriteParams(n_nodes=50), seed=1)
        assert isinstance(latency_model_for(topo), APSPLatencyModel)


class TestCoordinateModel:
    def test_euclidean(self):
        coords = np.asarray([[0.0, 0.0], [3.0, 4.0]])
        model = CoordinateLatencyModel(coords)
        assert model.pair(0, 1) == pytest.approx(5.0)

    def test_scale(self):
        coords = np.asarray([[0.0, 0.0], [1.0, 0.0]])
        assert CoordinateLatencyModel(coords, scale=10).pair(0, 1) == pytest.approx(10.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CoordinateLatencyModel(np.zeros((3, 3)))


class TestNoisyModel:
    def test_zero_sigma_passthrough(self, small_latency, rng):
        noisy = NoisyLatencyModel(small_latency, sigma=0.0)
        us = rng.integers(0, 300, 50)
        vs = rng.integers(0, 300, 50)
        np.testing.assert_array_equal(noisy.pairs(us, vs), small_latency.pairs(us, vs))

    def test_noise_is_multiplicative_and_unbiased_ish(self, small_latency, rng):
        noisy = NoisyLatencyModel(small_latency, sigma=0.2, seed=1)
        us = rng.integers(0, 300, 2000)
        vs = rng.integers(0, 300, 2000)
        clean = small_latency.pairs(us, vs)
        mask = clean > 0
        ratio = noisy.pairs(us, vs)[mask] / clean[mask]
        assert 0.9 < np.median(ratio) < 1.1
        assert ratio.std() > 0.05

    def test_rejects_negative_sigma(self, small_latency):
        with pytest.raises(ValueError):
            NoisyLatencyModel(small_latency, sigma=-0.1)


class TestNoisyScalarAndTargets:
    def test_pair_accepts_scalars(self, small_latency):
        noisy = NoisyLatencyModel(small_latency, sigma=0.2, seed=5)
        value = noisy.pair(3, 17)
        assert isinstance(value, float)
        assert value >= 0.0

    def test_to_targets_matches_pairs_draws(self, small_latency):
        """The to_targets override must consume the RNG exactly like the
        equivalent pairs() call (same draw count, same order)."""
        targets = np.arange(0, 300, 3)
        a = NoisyLatencyModel(small_latency, sigma=0.3, seed=8)
        b = NoisyLatencyModel(small_latency, sigma=0.3, seed=8)
        np.testing.assert_array_equal(
            a.to_targets(4, targets),
            b.pairs(np.full(len(targets), 4), targets),
        )
