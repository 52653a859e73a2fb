"""One latency model per decomposition, asked the same questions filled and lazy.

Filled at construction and filled on first use are one code path run
under different ``eager_bytes``, so every kind of query is put to the
same topology both ways and must come back ``array_equal`` across them
and equal to Dijkstra — on the transit-stub decomposition and on the
APSP row blocks alike.  The rest pins what the ``uint8`` hop store and
its packed triangle could get wrong (deep, mixed-delay, duplicate-link
and off-table-delay stubs; both orders of a pair), the eager threshold,
the shape check, and — by call counts, never by a clock — what a fill
and a warm ``pairs`` may cost.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import repro
import repro.topology.latency as latency_module
from repro.engine import stream_batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.metrics.registry import MetricsRegistry
from repro.topology.attach import PeerLatencyView
from repro.topology.base import ROUTER_STUB, ROUTER_TRANSIT
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.latency import (
    APSPLatencyModel,
    TransitStubLatencyModel,
    latency_model_for,
)
from repro.topology.transit_stub import TransitStubParams, TransitStubTopology, generate_transit_stub

BUDGETS = ["lazy", "filled"]


def _stub_block_bytes(topo):
    """One ``uint8`` stub block: the packed upper triangle, diagonal included."""
    size = topo.params.stub_domain_size
    return size * (size + 1) // 2


def _at_budget(make, budget):
    """One decomposition's model, filled at construction or on first use."""
    return make() if budget == "filled" else make(eager_bytes=0)


@pytest.fixture(scope="module", params=["transit_stub", "apsp"])
def decomposition(request, small_topology):
    """``(topology, make, {budget: model})`` — fresh models per module."""
    if request.param == "transit_stub":
        topo = small_topology

        def make(**kw):
            return TransitStubLatencyModel(topo, **kw)
    else:
        topo = generate_brite(BriteParams(n_nodes=150), seed=4)

        def make(**kw):
            return APSPLatencyModel(topo, chunk=16, **kw)

    return topo, make, {b: _at_budget(make, b) for b in BUDGETS}


class TestSameAnswersAtEveryBudget:
    def _check(self, decomposition, us, vs):
        topo, _, models = decomposition
        answers = {b: model.pairs(us, vs) for b, model in models.items()}
        np.testing.assert_array_equal(answers["lazy"], answers["filled"])
        truth = topo.shortest_delays(np.unique(us))
        np.testing.assert_allclose(
            answers["filled"], truth[np.searchsorted(np.unique(us), us), vs]
        )

    def test_all_routers_by_all_routers(self, decomposition):
        """One call needing every block: a lazy pool fills each cold one
        once, then answers every lane in one gather."""
        n = decomposition[0].n_routers
        self._check(decomposition, np.repeat(np.arange(n), n), np.tile(np.arange(n), n))

    def test_random_batch(self, decomposition, rng):
        n = decomposition[0].n_routers
        self._check(decomposition, rng.integers(0, n, 10_000), rng.integers(0, n, 10_000))

    def test_pair_is_pairs_bit_for_bit(self, decomposition, rng):
        topo, _, models = decomposition
        us, vs = rng.integers(0, topo.n_routers, (2, 60))
        for budget, model in models.items():
            batch = model.pairs(us, vs)
            for u, v, want in zip(us.tolist(), vs.tolist(), batch.tolist()):
                got = model.pair(u, v)
                assert type(got) is float and got == want, (budget, u, v)

    def test_to_targets(self, decomposition):
        topo, _, models = decomposition
        targets = np.arange(0, topo.n_routers, 5)
        rows = {b: model.to_targets(2, targets) for b, model in models.items()}
        np.testing.assert_array_equal(rows["lazy"], rows["filled"])
        np.testing.assert_allclose(rows["filled"], topo.shortest_delays([2])[0][targets])

    def test_counters(self, decomposition):
        """``cache_misses`` counts blocks filled, ``cache_hits`` lanes
        answered from a block already filled."""
        topo, make, models = decomposition
        filled = models["filled"]
        assert filled.cache_misses == len(filled._filled) and filled._filled.all()
        lazy = make(eager_bytes=0)
        assert lazy.stats()["cache_misses"] == 0
        u = int(topo.stub_routers[0])
        lazy.pairs(np.asarray([u, u]), np.asarray([u, u]))
        assert (lazy.cache_misses, lazy.cache_hits) == (1, 0)
        lazy.pairs(np.asarray([u, u, u]), np.asarray([u, u, u]))
        assert (lazy.cache_misses, lazy.cache_hits) == (1, 3)
        assert lazy.pair(u, u) == 0.0 and lazy.cache_hits == 4


def _pair_kinds(topo):
    """``(u, v)`` for stub/stub-same, stub/stub-cross, stub/transit, transit/transit."""
    a, b = np.flatnonzero(topo.stub_domain_of == 0), np.flatnonzero(topo.stub_domain_of == 1)
    t = topo.transit_routers
    return [(a[0], a[-1]), (a[1], b[0]), (b[-1], t[0]), (t[0], t[-1]), (t[0], t[0]), (a[0], a[0])]


def test_transit_stub_pair_kinds_are_scalar_exact(small_topology):
    for budget in BUDGETS:
        model = _at_budget(lambda **kw: TransitStubLatencyModel(small_topology, **kw), budget)
        for u, v in _pair_kinds(small_topology):
            want = model.pairs(np.asarray([u]), np.asarray([v]))[0]
            assert model.pair(int(u), int(v)) == want == model.pair(int(v), int(u))
            assert want == small_topology.shortest_delays([u])[0][v]


# ----------------------------------------------------------------------
# The peer-indexed tables: a view prices peers as the model prices their routers.


class TestPeerIndexedTables:
    """Over a transit-stub model, ``PeerLatencyView.pairs`` reads the
    model's tables gathered per peer; it must answer, bit for bit and
    with the same pool traffic, what the model answers for the peers'
    routers."""

    @pytest.fixture(scope="class", params=[(320, 7), (900, 2)], ids=["ts320", "ts900"])
    def topo(self, request):
        n_routers, seed = request.param
        return generate_transit_stub(TransitStubParams.for_size(n_routers), seed=seed)

    @staticmethod
    def _placements(topo):
        rng = np.random.default_rng(5)
        stub = topo.stub_routers
        return {
            "stub": rng.permutation(stub)[: len(stub) // 2],  # attach_overlay's draw
            "transit": np.arange(len(topo.transit_routers) + 40),  # every transit router, then stubs
            "co_located": rng.choice(stub[:60], 300),  # the replace=True fallback
        }

    @staticmethod
    def _queries(topo, router_of_peer):
        """Random lanes first (a lazy pool fills part-way), then every
        ordered peer pair (``u == v``, same-stub, cross-stub, transit
        both sides), then neighbours in domain order (same-stub lanes)."""
        n = len(router_of_peer)
        us, vs = np.random.default_rng(n).integers(0, n, (2, 2000))
        by_domain = np.argsort(topo.stub_domain_of[router_of_peer], kind="stable")
        return [
            (us, vs),
            (np.repeat(np.arange(n), n), np.tile(np.arange(n), n)),
            (by_domain[:-1], by_domain[1:]),
            (by_domain[1:], by_domain[:-1]),
        ]

    @pytest.mark.parametrize("budget", [{}, {"streaming_threshold_bytes": 1}], ids=["eager", "lazy"])
    @pytest.mark.parametrize("placement", ["stub", "transit", "co_located"])
    def test_view_equals_the_model_at_the_routers(self, topo, budget, placement):
        router_of_peer = self._placements(topo)[placement]
        direct = latency_model_for(topo, **budget)
        view = PeerLatencyView(latency_model_for(topo, **budget), router_of_peer)
        assert view._tables is not None and view.model is not direct
        queries = self._queries(topo, router_of_peer)
        for us, vs in queries:
            got = view.pairs(us, vs)
            want = direct.pairs(router_of_peer[us], router_of_peer[vs])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert (view.model.cache_misses, view.model.cache_hits) == (direct.cache_misses, direct.cache_hits)
        assert direct.cache_hits > 0
        us, vs = queries[1]
        dom = topo.stub_domain_of[router_of_peer]
        same = (dom[us] >= 0) & (dom[us] == dom[vs])
        assert same.any() and (us == vs).any() and not same.all()
        shared = (router_of_peer[us] == router_of_peer[vs]) & (us != vs)
        assert shared.any() == (placement == "co_located")
        us, vs = queries[0]
        for u, v in zip(us[::97].tolist(), vs[::97].tolist()):
            assert view.pair(u, v) == direct.pair(int(router_of_peer[u]), int(router_of_peer[v]))
            assert view.pair(u, v) == view.pairs(np.asarray([u]), np.asarray([v]))[0]

    def test_tables_are_per_peer_and_read_no_router_of_peer(self, topo, monkeypatch):
        router_of_peer = self._placements(topo)["stub"]
        model = latency_model_for(topo)
        view = PeerLatencyView(model, router_of_peer)
        assert [t.dtype for t in view._tables] == [np.float64, *[np.int32] * 5]
        assert all(len(t) == len(router_of_peer) for t in view._tables)
        assert sum(t.itemsize for t in view._tables) == 28  # bytes a peer
        us, vs = self._queries(topo, router_of_peer)[1]
        want = view.pairs(us, vs)
        monkeypatch.setattr(view, "router_of_peer", None)
        assert np.array_equal(view.pairs(us, vs), want)

    def test_other_models_keep_the_router_map(self):
        brite = generate_brite(BriteParams(n_nodes=50), seed=1)
        model = APSPLatencyModel(brite)
        view = PeerLatencyView(model, np.arange(50)[::-1])
        assert view._tables is None
        us, vs = np.arange(50), np.arange(50)[::3].repeat(3)[:50]
        assert np.array_equal(view.pairs(us, vs), model.pairs(49 - us, 49 - vs))


# ----------------------------------------------------------------------
# Hand-built stubs: what a uint8 hop count cannot hold keeps float32 ms.


def hand_built(stubs, *, intra_stub_delay=5.0):
    """One transit router (id 0) and hand-built stubs of one size.

    Each stub is ``(n, edges, delays, border)`` in local ids; its border
    router hangs off the transit router by a 20 ms uplink.
    """
    size = stubs[0][0]
    edges, delays, dom, local, borders = [], [], [-1], [0], []
    for d, (n, stub_edges, stub_delays, border) in enumerate(stubs):
        assert n == size
        base = 1 + d * size
        stub_edges = np.asarray(stub_edges, dtype=np.int64).reshape(-1, 2)
        edges += [base + stub_edges, [[base + border, 0]]]
        delays += [np.broadcast_to(np.asarray(stub_delays, dtype=np.float64), len(stub_edges)), [20.0]]
        dom += [d] * n
        local += list(range(n))
        borders.append(base + border)
    n_routers = 1 + len(stubs) * size
    return TransitStubTopology(
        n_routers=n_routers,
        edges=np.concatenate(edges),
        delays=np.concatenate(delays),
        kind=np.asarray([ROUTER_TRANSIT] + [ROUTER_STUB] * (n_routers - 1), dtype=np.uint8),
        stub_domain_of=np.asarray(dom),
        border_router_of_domain=np.asarray(borders),
        gateway_of_domain=np.zeros(len(stubs), dtype=np.int64),
        local_index=np.asarray(local),
        params=TransitStubParams(
            n_transit_domains=1,
            transit_nodes_per_domain=1,
            stubs_per_transit_node=len(stubs),
            stub_domain_size=size,
            intra_stub_delay=intra_stub_delay,
        ),
    )


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


RING4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
#: name → (topology, dtype its blocks must have)
HAND_BUILT = {
    # Diameter 299: ``hops +=`` on uint8 would wrap at level 256.
    "path_300": (lambda: hand_built([(300, _path(300), 5.0, 0)] * 2), np.float32),
    # Diameter 249 from a border 125 hops deep: the deepest stub uint8 still takes.
    "path_250_mid_border": (lambda: hand_built([(250, _path(250), 5.0, 124)]), np.uint8),
    # Border 128 hops deep: the diameter might pass 254, so float32.
    "path_200_end_border": (lambda: hand_built([(200, _path(200), 5.0, 0)]), np.float32),
    "mixed_delays": (
        lambda: hand_built([(4, RING4, 5.0, 0), (4, RING4, [5.0, 5.0, 5.0, 20.0], 1)]),
        np.float32,
    ),
    # The CSR sums a link listed twice: 10 ms between 0 and 1, two hops of 5 elsewhere.
    "duplicate_link": (
        lambda: hand_built([(4, RING4 + [(0, 1)], 5.0, 0), (4, RING4, 5.0, 0)]),
        np.float32,
    ),
    # Uniform, but not the delay the hop table was built for.
    "off_table_delay": (lambda: hand_built([(4, RING4, 7.0, 0), (4, RING4, 7.0, 2)]), np.float32),
    "delay_0.1": (
        lambda: hand_built([(40, _path(40), 0.1, 3)] * 2, intra_stub_delay=0.1),
        np.uint8,
    ),
    "delay_third": (
        lambda: hand_built([(40, _path(40), 1 / 3, 3)] * 2, intra_stub_delay=1 / 3),
        np.uint8,
    ),
}


class TestHandBuiltStubs:
    @pytest.mark.parametrize("eager_bytes", [None, 0], ids=["filled", "lazy"])
    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_answers_are_dijkstra_through_the_model(self, name, eager_bytes):
        build, dtype = HAND_BUILT[name]
        topo = build()
        model = TransitStubLatencyModel(topo, eager_bytes=eager_bytes)
        assert model._pool.dtype == dtype
        n = topo.n_routers
        got = model.pairs(np.repeat(np.arange(n), n), np.tile(np.arange(n), n)).reshape(n, n)
        np.testing.assert_allclose(got, topo.shortest_delays(np.arange(n)), rtol=1e-6)
        for u, v in np.random.default_rng(n).integers(0, n, (40, 2)).tolist():
            assert model.pair(u, v) == got[u, v]  # the scalar path, bit for bit
        # Inside a stub: the stub's own Dijkstra, bit for bit in float32.
        for d in range(topo.n_stub_domains):
            members = np.flatnonzero(topo.stub_domain_of == d)
            sub = topo.csr()[members][:, members]
            np.testing.assert_array_equal(
                got[np.ix_(members, members)],
                dijkstra(sub, directed=False).astype(np.float32),
            )

    @pytest.mark.parametrize("name", ["generated", *HAND_BUILT])
    def test_packed_blocks_answer_the_square_both_ways(self, name, small_topology):
        """A block stores each router pair once: ``(u, v)`` and ``(v, u)``
        read one entry, and every pair of every stub reads what the
        square ``_bfs_hops`` / Dijkstra scratch held before packing."""
        topo = small_topology if name == "generated" else HAND_BUILT[name][0]()
        model = TransitStubLatencyModel(topo)
        for d in range(topo.n_stub_domains):
            members = np.flatnonzero(topo.stub_domain_of == d)
            m = len(members)
            got = model.pairs(np.repeat(members, m), np.tile(members, m)).reshape(m, m)
            np.testing.assert_array_equal(got.view(np.uint64), got.T.view(np.uint64))
            indptr, indices, data = model._stub_graph(d)
            if model._ms is None:
                sub = csr_matrix((data, indices, indptr), shape=(m, m))
                square = dijkstra(sub, directed=False).astype(np.float32)
            else:
                hops = np.zeros((m, m), dtype=np.uint8)
                latency_module._bfs_hops(indptr, indices, hops)
                square = model._ms[hops]
            np.testing.assert_array_equal(got.view(np.uint64), square.astype(np.float64).view(np.uint64))

    @pytest.mark.parametrize("eager_bytes", [None, 0], ids=["filled", "lazy"])
    def test_split_stub_is_named_in_both_fill_modes(self, eager_bytes):
        """Stub 1 falls into {border, 1} and {2, 3}."""
        topo = hand_built([(4, _path(4), 5.0, 0), (4, [(0, 1), (2, 3)], 5.0, 0)])
        with pytest.raises(ValueError, match="stub domain 1 is internally disconnected"):
            TransitStubLatencyModel(topo, eager_bytes=eager_bytes)


# ----------------------------------------------------------------------
# The eager threshold, the dispatch, the shape check.


class TestBudgetIsAHardCeiling:
    """``streaming_threshold_bytes`` caps what construction fills: a
    footprint above it fills no block until a query names one."""

    def test_threshold_picks_fill_at_construction_or_on_first_use(self, small_topology):
        n_stubs = small_topology.n_stub_domains
        footprint = n_stubs * _stub_block_bytes(small_topology)
        assert latency_model_for(small_topology, streaming_threshold_bytes=footprint).cache_misses == n_stubs
        lazy = latency_model_for(small_topology, streaming_threshold_bytes=footprint - 1)
        assert type(lazy) is TransitStubLatencyModel and lazy.cache_misses == 0
        assert lazy._pool.shape[0] == n_stubs and not lazy._filled.any()  # one row per block
        brite = generate_brite(BriteParams(n_nodes=50), seed=1)
        assert latency_model_for(brite).cache_misses == 1
        lazy = latency_model_for(brite, streaming_threshold_bytes=0)
        assert type(lazy) is APSPLatencyModel and lazy.cache_misses == 0


class TestPairsFailsLoudly:
    @pytest.fixture(scope="class")
    def entry_points(self, small_topology, small_latency):
        brite = generate_brite(BriteParams(n_nodes=50), seed=1)
        return [
            small_latency,
            TransitStubLatencyModel(small_topology, eager_bytes=0),
            APSPLatencyModel(brite),
            PeerLatencyView(small_latency, np.arange(40)),
        ]

    @pytest.mark.parametrize(
        "us, vs, shapes",
        [
            ([3], [1, 2, 3, 4], r"\(1,\) and \(4,\)"),  # used to broadcast silently
            ([1, 2, 3], [1, 2], r"\(3,\) and \(2,\)"),
            ([[1, 2]], [[1, 2]], r"\(1, 2\) and \(1, 2\)"),
            (3, 4, r"\(\) and \(\)"),
        ],
        ids=["one_against_four", "three_against_two", "two_d", "scalars"],
    )
    def test_unequal_or_non_1d_shapes_name_both(self, entry_points, us, vs, shapes):
        for model in entry_points:
            with pytest.raises(ValueError, match="equal-length 1-D index vectors, got shapes " + shapes):
                model.pairs(np.asarray(us), np.asarray(vs))

    def test_empty_vectors_are_fine(self, entry_points):
        for model in entry_points:
            assert model.pairs(np.asarray([], dtype=int), np.asarray([], dtype=int)).shape == (0,)


# ----------------------------------------------------------------------
# Count gates: what a build, a fill and a warm call may do.


@pytest.fixture()
def dijkstra_calls(monkeypatch):
    made = []
    run = latency_module._dijkstra

    def counting(*args, **kwargs):
        made.append(1)
        return run(*args, **kwargs)

    monkeypatch.setattr(latency_module, "_dijkstra", counting)
    return made


#: Hand-built stubs whose links do not all carry ``intra_stub_delay``.
OFF_ONE_DELAY = {"mixed_delays", "duplicate_link", "off_table_delay"}


class TestCallCounts:
    @pytest.mark.parametrize("eager_bytes", [None, 0], ids=["filled", "lazy"])
    def test_a_generated_topology_runs_no_dijkstra(
        self, small_topology, dijkstra_calls, eager_bytes
    ):
        """One link delay per tier: the core, the borders and every block are hop counts."""
        model = TransitStubLatencyModel(small_topology, eager_bytes=eager_bytes)
        assert dijkstra_calls == []
        us, vs = np.asarray(
            [np.flatnonzero(small_topology.stub_domain_of == d)[:2] for d in range(3)]
        ).T  # one same-domain pair in each of three stubs
        model.pairs(us, vs)
        assert model.cache_misses == (3 if eager_bytes == 0 else small_topology.n_stub_domains)
        assert dijkstra_calls == []

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_stubs_run_dijkstra_off_one_delay_only(self, name, dijkstra_calls):
        """The border pass is Dijkstra only when the stub links carry more
        than one delay; a fill is Dijkstra once per ``float32`` block."""
        build, dtype = HAND_BUILT[name]
        topo = build()
        model = TransitStubLatencyModel(topo, eager_bytes=0)
        assert len(dijkstra_calls) == (name in OFF_ONE_DELAY)
        firsts = [np.flatnonzero(topo.stub_domain_of == d)[:2] for d in range(topo.n_stub_domains)]
        model.pairs(*np.asarray(firsts).T)
        fills = topo.n_stub_domains if dtype == np.float32 else 0
        assert len(dijkstra_calls) == (name in OFF_ONE_DELAY) + fills

    # A pool with room for every block: the only kind there is.
    @pytest.mark.parametrize("eager_bytes", [0], ids=["roomy"])
    def test_warm_pairs_is_one_gather_no_fill_no_unique(self, small_topology, monkeypatch, eager_bytes):
        model = TransitStubLatencyModel(small_topology, eager_bytes=eager_bytes)
        members = [np.flatnonzero(small_topology.stub_domain_of == d) for d in range(3)]
        us = np.concatenate([m[:3] for m in members] + [members[0][:2]])
        vs = np.concatenate([m[1:4] for m in members] + [members[2][:2]])  # 9 same-domain, 2 cross
        cold = model.pairs(us, vs)
        assert model.cache_misses == 3

        gathers = []
        block_ms = model._block_ms

        def forbidden(*args, **kwargs):
            raise AssertionError("the warm path must not fill a block or scan for misses")

        monkeypatch.setattr(model, "_fill", forbidden)
        monkeypatch.setattr(latency_module.np, "unique", forbidden)
        monkeypatch.setattr(model, "_block_ms", lambda *a: gathers.append(len(a[0])) or block_ms(*a))
        np.testing.assert_array_equal(model.pairs(us, vs), cold)
        assert gathers == [9]
        assert (model.cache_misses, model.cache_hits) == (3, 9)


# ----------------------------------------------------------------------
# The model says what it holds.


class TestObservability:
    @pytest.fixture(scope="class")
    def filled_by_routing(self):
        """N=2 048 in lazy mode after a fill pass — ``route_large`` in small."""
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=2048, seed=3), cache=False, streaming_threshold_bytes=1
        )
        model = bundle.peer_latency.model
        assert model.cache_misses < 8  # landmark placement asked about a few stubs
        trace = make_trace(bundle, 4000)
        stream_batch_route(bundle.hieras, trace.sources, trace.keys)
        return bundle, model

    def test_resident_bytes_is_one_byte_per_pair_of_each_filled_block(self, filled_by_routing):
        bundle, model = filled_by_routing
        packed = _stub_block_bytes(bundle.topology)
        filled = model.cache_misses
        assert 0 < filled <= bundle.topology.n_stub_domains
        assert model._pool.dtype == np.uint8 and model._pool.shape[1:] == (packed,)
        tables = [
            model._core, model._edge, model._gw_u, model._gw_v, model._dom_u, model._dom_v,
            model._local, model._ms, model._starts, model._data, model._indices, model._indptr,
            model._filled, model._row_start,
        ]  # fmt: skip
        # scipy's CSR dtypes, which ``memory.latency_bytes`` was recorded with.
        assert (model._indptr.dtype, model._indices.dtype, model._data.dtype) == (
            np.int32, np.int32, np.float64,
        )  # fmt: skip
        assert model.resident_bytes == filled * packed * 1 + sum(t.nbytes for t in tables)
        # Rows no block was filled into were never written (np.zeros pages stay untouched).
        assert model._filled.sum() == filled and not model._pool[~model._filled].any()

    def test_stats(self, filled_by_routing):
        _, model = filled_by_routing
        stats = model.stats()
        assert list(stats) == ["resident_bytes", "cache_misses", "cache_hits"]
        assert stats["cache_hits"] > 0 and all(type(v) is int for v in stats.values())
        assert stats == {k: getattr(model, k) for k in stats}

    def test_routing_publishes_nothing(self, filled_by_routing):
        """A traced batch leaves no latency gauge behind."""
        from repro.engine import batch_route
        from repro.metrics.spans import SpanRecorder

        bundle, _ = filled_by_routing
        registry = MetricsRegistry()
        bundle.chord.enable_tracing(SpanRecorder(registry))
        try:
            trace = make_trace(bundle, 64)
            batch_route(bundle.chord, trace.sources, trace.keys)
        finally:
            bundle.chord.disable_tracing()
        assert not [g for g in registry.snapshot()["gauges"] if g.startswith("topology.latency")]


# ----------------------------------------------------------------------
# What the transit-stub path loads.

_SCIPY_FREE = """
import sys
from repro.engine import batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace

def route(model, n_peers, **budget):
    bundle = build_bundle(SimConfig(model=model, n_peers=n_peers, seed=3), cache=False, **budget)
    trace = make_trace(bundle, 200)
    for net in (bundle.chord, bundle.hieras):
        batch_route(net, trace.sources, trace.keys)

route("ts", 300)
route("ts", 300, streaming_threshold_bytes=1)
print(sorted(name for name in sys.modules if name.startswith("scipy.sparse")))
route("inet", 2400)  # Inet's minimum: 3 000 routers
print("scipy.sparse" in sys.modules)
"""


def test_the_transit_stub_path_never_loads_scipy_sparse():
    """Eager and streaming transit-stub bundles build and route without
    ``scipy.sparse`` (≈33 MB a process); an Inet bundle, whose APSP
    blocks are Dijkstra, still builds and loads it at the call."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split("\n")[:2] == ["[]", "True"]
