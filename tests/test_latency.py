"""Tests for latency models, including exactness cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

import repro.topology.latency as latency_module
from repro.topology.base import ROUTER_STUB, ROUTER_TRANSIT, Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.latency import (
    APSPLatencyModel,
    CoordinateLatencyModel,
    NoisyLatencyModel,
    StreamingAPSPLatencyModel,
    StreamingTransitStubLatencyModel,
    TransitStubLatencyModel,
    _uniform_apsp,
    latency_model_for,
)
from repro.topology.transit_stub import (
    TransitStubParams,
    TransitStubTopology,
    _connected_random_graph,
    generate_transit_stub,
)


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

    def test_matrix_readonly(self, model_and_topo):
        model, _ = model_and_topo
        with pytest.raises(ValueError):
            model.matrix[0, 0] = 1

    def test_chunking_equivalent(self):
        topo = generate_brite(BriteParams(n_nodes=64), seed=2)
        a = APSPLatencyModel(topo, chunk=7)
        b = APSPLatencyModel(topo, chunk=1024)
        np.testing.assert_array_equal(a.matrix, b.matrix)

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


class TestUniformApsp:
    """The bit-parallel BFS block ≡ Dijkstra, bit for bit in float64."""

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
        block = _uniform_apsp(sub)
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, dijkstra(sub, directed=False))

    @pytest.mark.parametrize("delay", DELAYS)
    @pytest.mark.parametrize("n", WORD_BOUNDARY_SIZES[1:])
    def test_path_and_star(self, n, delay):
        path = _sub_graph(n, [(i, i + 1) for i in range(n - 1)], delay)  # diameter n - 1
        star = _sub_graph(n, [(0, i) for i in range(1, n)], delay)
        for sub in (path, star):
            np.testing.assert_array_equal(_uniform_apsp(sub), dijkstra(sub, directed=False))

    @pytest.mark.parametrize("loner", [0, 2, 4])
    def test_router_without_links_is_unreachable(self, loner):
        """An empty CSR row (first, middle, last) must not borrow a
        neighbour's slot from ``reduceat``."""
        others = [r for r in range(5) if r != loner]
        sub = _sub_graph(5, list(zip(others, others[1:])), 5.0)
        block = _uniform_apsp(sub)
        np.testing.assert_array_equal(block, dijkstra(sub, directed=False))
        assert np.isinf(block[loner, others]).all() and np.isinf(block[others, loner]).all()
        assert block[loner, loner] == 0.0

    def test_mixed_delays_match_dijkstra(self):
        sub = _sub_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [5.0, 5.0, 5.0, 20.0])
        block = _uniform_apsp(sub)
        np.testing.assert_array_equal(block, dijkstra(sub, directed=False))
        assert block[0, 3] == 15.0  # three 5 ms hops beat the direct 20 ms link


def _split_stub_topology():
    """One transit router, two 4-router stubs; stub 1 is split into
    {5, 6} (holding the border) and {7, 8}."""
    return TransitStubTopology(
        n_routers=9,
        edges=np.asarray([[1, 2], [2, 3], [3, 4], [1, 0], [5, 6], [7, 8], [5, 0]]),
        delays=np.asarray([5.0, 5.0, 5.0, 20.0, 5.0, 5.0, 20.0]),
        kind=np.asarray([ROUTER_TRANSIT] + [ROUTER_STUB] * 8, dtype=np.uint8),
        stub_domain_of=np.asarray([-1, 0, 0, 0, 0, 1, 1, 1, 1]),
        border_router_of_domain=np.asarray([1, 5]),
        gateway_of_domain=np.asarray([0, 0]),
        local_index=np.asarray([0, 0, 1, 2, 3, 0, 1, 2, 3]),
        params=TransitStubParams(
            n_transit_domains=1,
            transit_nodes_per_domain=1,
            stubs_per_transit_node=2,
            stub_domain_size=4,
        ),
    )


class TestSplitStub:
    @pytest.mark.parametrize(
        "model", [TransitStubLatencyModel, StreamingTransitStubLatencyModel]
    )
    def test_both_twins_name_the_split_domain(self, model):
        with pytest.raises(ValueError, match="stub domain 1 is internally disconnected"):
            model(_split_stub_topology())


class TestDijkstraCallCount:
    """Perf gate by count, not by clock: stub blocks never run Dijkstra."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []

        def counting(*args, **kwargs):
            made.append(1)
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(latency_module, "dijkstra", counting)
        return made

    def test_eager_build_runs_only_the_core_pass(self, small_topology, calls):
        TransitStubLatencyModel(small_topology)
        assert len(calls) == 1

    def test_streaming_build_and_cold_fill(self, small_topology, calls):
        model = StreamingTransitStubLatencyModel(small_topology, cache_blocks=4)
        assert len(calls) == 2  # transit core + the multi-source border pass
        us, vs = np.asarray(
            [small_topology.routers_of_domain(d)[:2] for d in range(3)]
        ).T  # one same-domain pair in each of three cold stubs
        model.pairs(us, vs)
        assert (model.cache_misses, model.cache_hits) == (3, 0)
        model.pairs(us[:1], vs[:1])
        assert (model.cache_misses, model.cache_hits) == (3, 1)
        assert len(calls) == 2


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


class TestStreamingAPSP:
    """Streaming row-block APSP ≡ the eager matrix, bit for bit."""

    @pytest.fixture(scope="class")
    def pair_of_models(self):
        topo = generate_brite(BriteParams(n_nodes=220), seed=3)
        return APSPLatencyModel(topo), StreamingAPSPLatencyModel(topo, chunk=64), topo

    def test_pairs_bit_identical(self, pair_of_models, rng):
        eager, streaming, topo = pair_of_models
        us = rng.integers(0, topo.n_routers, 500)
        vs = rng.integers(0, topo.n_routers, 500)
        np.testing.assert_array_equal(eager.pairs(us, vs), streaming.pairs(us, vs))

    def test_pair_and_to_targets_bit_identical(self, pair_of_models):
        eager, streaming, topo = pair_of_models
        assert eager.pair(1, 200) == streaming.pair(1, 200)
        targets = np.arange(0, topo.n_routers, 7)
        np.testing.assert_array_equal(
            eager.to_targets(9, targets), streaming.to_targets(9, targets)
        )

    def test_lru_evicts_and_still_agrees(self, rng):
        topo = generate_brite(BriteParams(n_nodes=150), seed=4)
        eager = APSPLatencyModel(topo)
        tiny = StreamingAPSPLatencyModel(topo, chunk=16, cache_blocks=2)
        us = rng.integers(0, topo.n_routers, 400)
        vs = rng.integers(0, topo.n_routers, 400)
        np.testing.assert_array_equal(eager.pairs(us, vs), tiny.pairs(us, vs))
        assert tiny.cache_misses > 2  # evictions happened, results unchanged
        hits = tiny.cache_hits
        assert tiny.pair(0, 5) == tiny.pair(0, 5)  # same block twice
        assert tiny.cache_hits > hits


class TestStreamingTransitStub:
    """Streaming per-stub blocks ≡ the eager exact decomposition."""

    @pytest.fixture(scope="class")
    def pair_of_models(self, small_topology):
        return (
            TransitStubLatencyModel(small_topology),
            StreamingTransitStubLatencyModel(small_topology, cache_blocks=4),
            small_topology,
        )

    def test_pairs_bit_identical(self, pair_of_models, rng):
        eager, streaming, topo = pair_of_models
        us = rng.integers(0, topo.n_routers, 600)
        vs = rng.integers(0, topo.n_routers, 600)
        np.testing.assert_array_equal(eager.pairs(us, vs), streaming.pairs(us, vs))

    def test_same_domain_pairs_bit_identical(self, pair_of_models):
        """Intra-stub queries take the on-demand Dijkstra block path."""
        eager, streaming, topo = pair_of_models
        dom = topo.stub_domain_of
        for target in range(3):
            members = np.flatnonzero(dom == target)
            us = np.repeat(members, len(members))
            vs = np.tile(members, len(members))
            np.testing.assert_array_equal(eager.pairs(us, vs), streaming.pairs(us, vs))

    def test_to_targets_bit_identical(self, pair_of_models):
        eager, streaming, topo = pair_of_models
        targets = np.arange(0, topo.n_routers, 5)
        np.testing.assert_array_equal(
            eager.to_targets(2, targets), streaming.to_targets(2, targets)
        )


class TestStreamingDispatch:
    def test_zero_threshold_streams(self, small_topology):
        model = latency_model_for(small_topology, streaming_threshold_bytes=0)
        assert isinstance(model, StreamingTransitStubLatencyModel)
        topo = generate_brite(BriteParams(n_nodes=50), seed=1)
        assert isinstance(
            latency_model_for(topo, streaming_threshold_bytes=0),
            StreamingAPSPLatencyModel,
        )

    def test_default_threshold_keeps_small_models_eager(self, small_topology):
        assert isinstance(latency_model_for(small_topology), TransitStubLatencyModel)

    def test_cache_budget_sizes_lru(self, small_topology):
        """cache_blocks is derived from streaming_cache_bytes so the
        resident-block ceiling is a byte budget, not a fixed count."""
        block_bytes = small_topology.params.stub_domain_size**2 * 4
        model = latency_model_for(
            small_topology,
            streaming_threshold_bytes=0,
            streaming_cache_bytes=200 * block_bytes,
        )
        assert model.cache_blocks == max(64, 200)
        topo = generate_brite(BriteParams(n_nodes=64), seed=2)
        apsp = latency_model_for(
            topo, streaming_threshold_bytes=0, streaming_cache_bytes=0
        )
        assert apsp.cache_blocks == 4  # floor


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
