"""Tests for repro.engine — the vectorized batch routing engine.

The engine's contract is *bit-identical* semantics to the scalar
``route()`` loop: same owners, same paths, same hop counts and exact
float equality on latencies.  The property tests here sweep seeds ×
stacks × depths × successor-list settings and compare array-for-array
with no tolerance.
"""

import json

import numpy as np
import pytest

import repro.engine.batch as batch_module
import repro.engine.result as result_module
from repro.analysis.stats import collect_routes
from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.dht.base import ZeroLatency
from repro.dht.ring_array import RingLayer, SortedRing
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.engine import (
    BatchRouteResult,
    batch_route,
    route_cohort,
    route_layer,
    scalar_batch_route,
    stream_batch_route,
    supports_batch,
)
from repro.engine.result import hop_sums
from repro.metrics.registry import MetricsRegistry
from repro.metrics.sinks import JsonlSink, MemorySink, SummarySink
from repro.metrics.spans import SpanRecorder
from repro.topology.latency import CoordinateLatencyModel
from repro.util.ids import IdSpace


def build_pair(
    n=120, depth=2, seed=5, bits=16, landmarks=4, latency=True, **hieras_kw
):
    """A (chord, hieras) pair over a synthetic planar deployment."""
    rng = np.random.default_rng(seed)
    space = IdSpace(bits)
    ids = space.sample_unique_ids(n, rng)
    distances = rng.uniform(0, 300, size=(n, landmarks))
    orders = BinningScheme.paper_for_depth(max(depth, 2)).orders(distances)
    model = (
        CoordinateLatencyModel(rng.uniform(0, 500, size=(n, 2)))
        if latency
        else ZeroLatency()
    )
    chord = ChordNetwork(space, ids, latency=model)
    hieras = HierasNetwork(
        space, ids, latency=model, landmark_orders=orders, depth=depth, **hieras_kw
    )
    return chord, hieras


def make_requests(network, n_requests, seed):
    rng = np.random.default_rng(seed ^ 0x5EED)
    sources = rng.integers(0, network.n_peers, size=n_requests)
    keys = rng.integers(0, network.space.size, size=n_requests, dtype=np.uint64)
    return sources, keys


def assert_identical(batch: BatchRouteResult, scalar: BatchRouteResult):
    """Bit-exact equality of every array the engine promises."""
    assert np.array_equal(batch.owner, scalar.owner)
    assert np.array_equal(batch.hops, scalar.hops)
    assert np.array_equal(batch.hops_per_layer, scalar.hops_per_layer)
    # Exact float equality — the contract, not np.allclose.
    assert np.array_equal(batch.latency_ms, scalar.latency_ms)
    assert np.array_equal(
        batch.low_layer_latency_ms(), scalar.low_layer_latency_ms()
    )
    if batch.paths is not None and scalar.paths is not None:
        for lane in range(len(batch.hops)):
            assert batch.path(lane) == scalar.path(lane)


class TestBatchScalarEquivalence:
    """The tentpole property: batch ≡ scalar, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("r", [0, 8])
    def test_hieras_matches_scalar(self, seed, depth, r):
        _, net = build_pair(n=90, depth=depth, seed=seed, successor_list_r=r)
        sources, keys = make_requests(net, 300, seed)
        batch = batch_route(net, sources, keys, paths=True)
        scalar = scalar_batch_route(net, sources, keys, paths=True)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [0, 8])
    def test_chord_matches_scalar(self, seed, r):
        rng = np.random.default_rng(seed)
        space = IdSpace(16)
        ids = space.sample_unique_ids(90, rng)
        model = CoordinateLatencyModel(rng.uniform(0, 500, size=(90, 2)))
        net = ChordNetwork(space, ids, latency=model, successor_list_r=r)
        sources, keys = make_requests(net, 300, seed)
        batch = batch_route(net, sources, keys, paths=True)
        scalar = scalar_batch_route(net, sources, keys, paths=True)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("policy", ["transitions", "always", "off"])
    def test_hieras_policies(self, policy):
        _, net = build_pair(
            n=80, depth=3, seed=9, successor_list_r=6, successor_list_policy=policy
        )
        sources, keys = make_requests(net, 250, 9)
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )

    def test_sixty_four_bit_deployment(self):
        bundle = build_bundle(SimConfig(n_peers=300, bits=64))
        trace = make_trace(bundle, 400)
        assert int(trace.keys.max()) >= 2**63
        assert int(bundle.chord.ring.ids.max()) >= 2**63
        for net in (bundle.chord, bundle.hieras):
            assert_identical(
                batch_route(net, trace.sources, trace.keys, paths=True),
                batch_route(net, trace.sources, trace.keys, engine="scalar", paths=True),
            )

    def test_zero_latency(self):
        chord, hieras = build_pair(n=60, seed=3, latency=False)
        for net in (chord, hieras):
            sources, keys = make_requests(net, 150, 3)
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    def test_exact_member_id_keys(self):
        chord, hieras = build_pair(n=50, seed=11)
        for net in (chord, hieras):
            rng = np.random.default_rng(11)
            sources = rng.integers(0, net.n_peers, size=net.n_peers)
            keys = np.asarray(
                [net.id_of(p) for p in range(net.n_peers)], dtype=np.uint64
            )
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_tiny_networks(self, n):
        chord, hieras = build_pair(n=n, seed=2)
        for net in (chord, hieras):
            sources, keys = make_requests(net, 64, n)
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    def test_source_owns_key(self):
        chord, _ = build_pair(n=40, seed=4)
        keys = np.asarray(
            [chord.id_of(p) for p in range(chord.n_peers)], dtype=np.uint64
        )
        owners = np.asarray([chord.owner_of(int(k)) for k in keys], dtype=np.int64)
        result = batch_route(chord, owners, keys)
        assert np.array_equal(result.owner, owners)
        assert np.array_equal(result.hops, np.zeros(len(keys), dtype=np.int64))
        assert np.array_equal(result.latency_ms, np.zeros(len(keys)))


def _member_sets(bits):
    """n = 1, n = 2, the full space, and sampled sets in between."""
    size = 1 << bits
    rng = np.random.default_rng(bits)
    yield [size - 1]
    yield [0, size // 2 + 1]
    yield list(range(size))
    for n in (3, size // 4, size // 2 + 1):
        yield sorted(rng.choice(size, size=n, replace=False).tolist())
    yield list(range(3, 3 + size // 4))  # one clustered arc, the rest empty


class TestFingerLevelRule:
    """The kernel's O(1) finger level ≡ the scalar level loop, exhaustively.

    Every ``(cur, key)`` of a small id space starts one lane, so each
    frontier step of the kernel is compared with the hop
    ``SortedRing.walk`` takes from every possible state.
    """

    @pytest.mark.parametrize("bits", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("to_owner", [True, False])
    @pytest.mark.parametrize("r", [0, 3])
    def test_every_cur_and_key(self, bits, to_owner, r):
        space = IdSpace(bits)
        for members in _member_sets(bits):
            n = len(members)
            ring = SortedRing(space, np.asarray(members, dtype=np.uint64), np.arange(n))
            start = np.repeat(np.arange(n), space.size)
            keys = np.tile(np.arange(space.size, dtype=np.uint64), n)
            hops = [[] for _ in range(len(start))]

            def sink(lanes, prev_pos, next_pos):
                for lane, pos in zip(lanes.tolist(), next_pos.tolist()):
                    hops[lane].append(pos)

            end = route_cohort(ring, start, keys, to_owner=to_owner, succ_list_r=r, sink=sink)
            for lane, (cur, key) in enumerate(zip(start.tolist(), keys.tolist())):
                path, _ = ring.walk(cur, key, to_owner=to_owner, succ_list_r=r)
                assert [cur] + hops[lane] == path, (members, cur, key)
                assert end[lane] == path[-1]

    @pytest.mark.parametrize("bits", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("to_owner", [True, False])
    @pytest.mark.parametrize("r", [0, 3])
    def test_every_ring_cur_and_key_in_one_layer(self, bits, to_owner, r):
        """The same member sets side by side as the rings of one layer:
        every ``(ring, cur, key)`` is one lane of one kernel call, and
        each lane must walk its own ring as if the others were absent."""
        space = IdSpace(bits)
        size = space.size
        # Two more rings, short runs of consecutive ids: from 7 bits up
        # their lanes outlast the advance rounds and finish by binary
        # search, two rings in the same step.
        runs = [list(range(at, at + max(size // 16, 1))) for at in (size // 8, size // 2)]
        rings = [
            SortedRing(space, np.asarray(members, dtype=np.uint64), np.arange(len(members)))
            for members in [*_member_sets(bits), *runs]
        ]
        view = RingLayer(rings)
        lanes_of = [len(ring) * space.size for ring in rings]
        code = np.repeat(np.arange(len(rings), dtype=np.int32), lanes_of)
        start = np.concatenate([np.repeat(np.arange(len(ring)), space.size) for ring in rings])
        keys = np.concatenate(
            [np.tile(np.arange(space.size, dtype=np.uint64), len(ring)) for ring in rings]
        )
        hops = [[] for _ in range(len(start))]

        def sink(lanes, prev_slot, next_slot):
            for lane, slot in zip(lanes.tolist(), next_slot.tolist()):
                hops[lane].append(slot)

        end = route_layer(
            view, view.base[code] + start, keys, code,
            to_owner=to_owner, succ_list_r=r, sink=sink,
        )
        for lane, (c, cur, key) in enumerate(zip(code.tolist(), start.tolist(), keys.tolist())):
            ring, lo = rings[c], int(view.base[c])
            walked, _ = ring.walk(cur, key, to_owner=to_owner, succ_list_r=r)
            path = [lo + pos for pos in walked]
            assert [lo + cur] + hops[lane] == path, (c, cur, key)
            assert end[lane] == path[-1]


def build_binned(ring_sizes, *, depth=2, spare=0, seed=3, bits=32, **hieras_kw):
    """A HIERAS network whose lowest-layer rings have exactly
    ``ring_sizes`` members: one landmark, and every peer of ring ``i``
    measures a delay inside the ``i``-th cell of the finest layer's
    boundaries (coarser layers merge neighbouring cells).  ``spare``
    leaves room in the latency model for peers added later."""
    rng = np.random.default_rng(seed)
    n = sum(ring_sizes)
    scheme = BinningScheme.paper_for_depth(max(depth, 2))
    cells = sorted({0.0, *(b for bounds in scheme.level_boundaries for b in bounds)})
    delay = np.repeat([cells[i] + 1.0 for i in range(len(ring_sizes))], ring_sizes)
    space = IdSpace(bits)
    return HierasNetwork(
        space,
        space.sample_unique_ids(n, rng),
        latency=CoordinateLatencyModel(rng.uniform(0, 500, size=(n + spare, 2))),
        landmark_orders=scheme.orders(delay[:, None]),
        depth=depth,
        **hieras_kw,
    )


def assert_equals_route(net, sources, keys):
    """The batch result ≡ ``net.route`` per lane; returns the result."""
    result = batch_route(net, sources, keys, paths=True)
    for lane, (source, key) in enumerate(zip(sources.tolist(), keys.tolist())):
        direct = net.route(source, key)
        assert result.path(lane) == direct.path
        assert result.owner[lane] == direct.owner
        assert result.latency_ms[lane] == direct.latency_ms
        assert result.hops_per_layer[lane].tolist() == direct.hops_per_layer
    return result


class TestLayerFrontier:
    """One kernel call advances every ring of a layer: the cases the
    per-ring grouping used to keep apart."""

    @pytest.mark.parametrize("policy", ["transitions", "always"])
    def test_depth_three_middle_layer_shortcuts_across_many_rings(self, policy):
        _, net = build_pair(
            n=1500, depth=3, seed=31, landmarks=6, bits=32,
            successor_list_r=8, successor_list_policy=policy,
        )
        plan = net._layer_plan()
        assert [row.layer for row in plan] == [3, 2, 1]
        assert len(plan[1].rings) >= 20 and plan[1].succ_list_r == 8
        sources, keys = make_requests(net, 4000, 31)
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )

    @pytest.mark.parametrize("r", [0, 4])
    def test_rings_a_hundred_times_apart_in_size(self, r):
        net = build_binned(
            [1, 2, 5, 500], depth=3, successor_list_r=r, successor_list_policy="always"
        )
        assert sorted(net.ring_sizes(3).tolist()) == [1, 2, 5, 500]
        # Every peer is a source, so every call mixes all four rings.
        sources = np.tile(np.arange(508), 8)
        keys = make_requests(net, len(sources), 41)[1]
        keys[:508] = [net.id_of(p) for p in range(508)]
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )

    def test_first_call_after_the_ring_set_changes(self):
        """Waves that retire a ring and found one under a new name change
        the layer's ring set (a code's slot empties, a new code gets one);
        the first batch call after each must not read a view of the rings
        before it."""
        net = build_binned([40, 6, 30], spare=5, successor_list_r=4, successor_list_policy="always")
        rng = np.random.default_rng(43)

        def check():
            live = np.flatnonzero(net._alive)
            sources = rng.choice(live, size=300)
            keys = rng.integers(0, net.space.size, size=300, dtype=np.uint64)
            first = assert_equals_route(net, sources, keys)
            net.rebuild()
            assert_identical(first, batch_route(net, sources, keys, paths=True))

        check()  # builds every layer's view before the first wave
        names = list(net.rings_at_layer(2))
        doomed = net.rings_at_layer(2)[names[1]].peers.tolist()
        assert len(doomed) == 6
        net.remove_peers(doomed)  # a whole ring retires: its slot empties
        assert list(net.rings_at_layer(2)) == [names[0], names[2]]
        check()
        fresh = [
            int(v) for v in net.space.sample_unique_ids(50, rng) if int(v) not in net.ring
        ][:5]
        net.add_peers(fresh, [["!"]] * 5)  # a new name that sorts first: a new code and slot
        assert list(net.rings_at_layer(2)) == ["!", names[0], names[2]]
        check()
        net.revive_peers(doomed)
        assert list(net.rings_at_layer(2)) == ["!", *names]
        check()

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("landmarks", [4, 8])
    def test_one_kernel_call_per_plan_layer(self, depth, landmarks, monkeypatch):
        """The gate on the walker's shape: kernel calls per ``batch_route``
        are the plan's layers — 1 on Chord, ``depth`` on HIERAS — however
        many rings a layer holds."""
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=8192, n_landmarks=landmarks, depth=depth), cache=False
        )
        rings = [len(row.rings) for row in bundle.hieras._layer_plan()]
        assert sum(rings) - 1 >= {2: 9, 3: 30}[depth] and rings[-1] == 1
        calls = []
        kernel = batch_module.route_layer

        def spy(view, *args, **kwargs):
            calls.append(len(view.sizes))
            return kernel(view, *args, **kwargs)

        monkeypatch.setattr(batch_module, "route_layer", spy)
        for net, layers in ((bundle.chord, 1), (bundle.hieras, depth)):
            assert len(net._layer_plan()) == layers
            sources, keys = make_requests(net, 256, depth)
            for engine_call in (batch_route, stream_batch_route):
                calls.clear()
                engine_call(net, sources, keys)
                assert calls == [len(row.rings) for row in net._layer_plan()]


#: Length of the planted id chain in ``build_chained``.
CHAIN = 20


def build_chained(depth, *, n=600, seed=37):
    """A (chord, hieras) pair whose first peers carry a planted id chain.

    Peer 0 has id 0 and peer ``j`` id ``2**32 - 2**(32 - j)`` for
    ``j = 1..CHAIN``, all with one landmark vector, so they share a ring
    at every HIERAS layer.  Routed to the key just past the chain's last
    id (which wraps to peer 0), peer ``j``'s finger is always the next
    chain member — one hop per bit — so its lookup takes ``CHAIN + 1 - j``
    hops, every length from 1 to ``CHAIN``.  No successor lists: they
    would cut the chain short.
    """
    rng = np.random.default_rng(seed)
    space = IdSpace(32)
    chain = np.asarray([0] + [2**32 - 2 ** (32 - j) for j in range(1, CHAIN + 1)], dtype=np.uint64)
    rest = space.sample_unique_ids(n, rng)
    ids = np.concatenate([chain, rest[~np.isin(rest, chain)][: n - len(chain)]])
    distances = rng.uniform(0, 300, size=(n, 4))
    distances[: len(chain)] = distances[0]
    model = CoordinateLatencyModel(rng.uniform(0, 500, size=(n, 2)))
    chord = ChordNetwork(space, ids, latency=model)
    hieras = HierasNetwork(
        space, ids, latency=model, depth=depth, successor_list_r=0,
        landmark_orders=BinningScheme.paper_for_depth(depth).orders(distances),
    )
    return chord, hieras


class TestHopLog:
    """The hop-major log: peers during the walk, one pricing pass after
    it, and totals summed exactly as ``np.sum`` sums each lane's row."""

    @pytest.mark.parametrize("layout", ["hop_major", "lane_major"])
    def test_hop_sums_equal_np_sum_bit_for_bit(self, layout, monkeypatch):
        """Every length 0…140 — both sides of numpy's 8-wide unroll and of
        its 128-value block — over values of random sign and magnitude,
        ``-0.0`` among them, with garbage past each lane's length.  A
        numpy whose summation order changes fails here."""
        rng = np.random.default_rng(2028)
        lengths = np.repeat(np.arange(141), 7)
        shape = (150, len(lengths))
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
        values[rng.random(shape) < 0.05] = -0.0
        if layout == "lane_major":
            values = np.ascontiguousarray(values.T).T
        rows = [values[:, lane].copy() for lane in range(len(lengths))]
        want = np.array([np.sum(row[:h]) for row, h in zip(rows, lengths.tolist())])
        assert np.array_equal(hop_sums(values, lengths).view(np.int64), want.view(np.int64))
        monkeypatch.setattr(result_module, "_SUM_LANES", 100)  # slices end mid-length
        assert np.array_equal(hop_sums(values, lengths).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(("stack", "depth"), [("chord", 2), ("hieras", 2), ("hieras", 3)])
    def test_long_rows_match_scalar(self, stack, depth):
        """Non-integer delays on lanes of 8 hops and more, where the sum
        is numpy's unrolled tree rather than a sequential add, and past
        16, where the log outgrows the 16 rows it starts with at N=600."""
        nets = build_chained(depth)
        net = nets[0] if stack == "chord" else nets[1]
        sources, keys = make_requests(net, 1500, depth)
        sources[:CHAIN] = np.arange(1, CHAIN + 1)
        keys[:CHAIN] = int(net.id_of(CHAIN)) + 1
        batch = batch_route(net, sources, keys, paths=True)
        assert batch.hops[:CHAIN].tolist() == list(range(CHAIN, 0, -1))
        assert (batch.hops >= 8).sum() > CHAIN and (batch.hops >= 16).any()
        assert batch.hop_latency_ms.shape[1] == 32
        assert_identical(batch, scalar_batch_route(net, sources, keys, paths=True))
        assert_identical(batch_route(net, sources, keys), batch)
        if stack == "hieras":
            assert batch.low_layer_hops.max() >= 16

    @pytest.mark.parametrize("depth", [2, 3])
    def test_pairs_only_after_the_walk_once_per_hop_row(self, depth, monkeypatch):
        """The call-count gate: one ``pairs`` call per hop row, none while
        a kernel runs."""
        kernel = batch_module.route_layer
        walking = [False]

        def spy_kernel(*args, **kwargs):
            walking[0] = True
            try:
                return kernel(*args, **kwargs)
            finally:
                walking[0] = False

        chord, hieras = build_pair(n=300, depth=depth, seed=depth)
        assert chord.latency is hieras.latency
        pairs = chord.latency.pairs
        calls = []

        def spy_pairs(us, vs):
            calls.append(walking[0])
            return pairs(us, vs)

        monkeypatch.setattr(batch_module, "route_layer", spy_kernel)
        monkeypatch.setattr(chord.latency, "pairs", spy_pairs)
        for net in (chord, hieras):
            calls.clear()
            sources, keys = make_requests(net, 2000, depth)
            result = batch_module.batch_route_chord(net, sources, keys)
            assert len(calls) == int(result.hops.max()) > 0
            assert not any(calls)


class TestResultShape:
    def test_route_result_round_trip(self):
        _, net = build_pair(n=70, depth=3, seed=6)
        sources, keys = make_requests(net, 40, 6)
        result = batch_route(net, sources, keys, paths=True)
        for lane in (0, 7, 39):
            direct = net.route(int(sources[lane]), int(keys[lane]))
            assert result.path(lane) == direct.path
            assert result.owner[lane] == direct.owner
            assert result.latency_ms[lane] == direct.latency_ms
            assert result.hops_per_layer[lane].tolist() == direct.hops_per_layer

    def test_paths_require_opt_in(self):
        chord, _ = build_pair(n=30, seed=1)
        sources, keys = make_requests(chord, 10, 1)
        result = batch_route(chord, sources, keys)
        assert result.paths is None
        with pytest.raises(ValueError):
            result.path(0)

    def test_dead_source_rejected(self):
        chord, _ = build_pair(n=30, seed=1)
        chord.remove_peer(3)
        sources = np.asarray([3], dtype=np.int64)
        keys = np.asarray([123], dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_route(chord, sources, keys)

    @pytest.mark.parametrize("engine", ["batch", "scalar", None])
    @pytest.mark.parametrize("bad", [-1, 30])
    def test_out_of_range_source_rejected(self, engine, bad):
        """A negative source must not wrap to the last peer, and one past
        the end must not surface numpy's IndexError — on both stacks,
        both engines and the direct scalar calls (``engine=None``)."""
        message = rf"source peer {bad} out of range \[0, 30\)"
        for net in build_pair(n=30, seed=1):
            with pytest.raises(ValueError, match=message):
                if engine is None:
                    net.route(bad, 7)
                else:
                    batch_route(net, [0, bad], [5, 7], engine=engine)
            if engine is None:
                with pytest.raises(ValueError, match=message):
                    net.route_lossy(bad, 7, injector=None)  # rejected before any contact

    @pytest.mark.parametrize(
        ("source", "key", "message"),
        [
            (7.0, 5, "source peer must be an integer, got 7.0"),
            (True, 5, "source peer must be an integer, got True"),
            (7, 3.7, "key must be an integer, got 3.7"),
            (7, np.float64(3.0), r"key must be an integer, got (np\.float64\()?3\.0"),
            (7, True, "key must be an integer, got True"),
        ],
    )
    def test_non_integer_scalar_request_rejected(self, source, key, message):
        """The scalar calls refuse what ``batch_route`` refuses: a float or
        bool is not truncated to a source or key the caller never named —
        on both stacks, ``route``, ``route_lossy`` (before any contact)
        and ``owner_of``; numpy integers stay accepted."""
        for net in build_pair(n=30, seed=1):
            with pytest.raises(ValueError, match=message):
                net.route(source, key)
            with pytest.raises(ValueError, match=message):
                net.route_lossy(source, key, injector=None)
            if type(source) is int:  # a key case
                with pytest.raises(ValueError, match=message):
                    net.owner_of(key)
            assert net.route(np.int64(7), np.uint64(5)).path == net.route(7, 5).path
            assert net.owner_of(np.uint64(5)) == net.owner_of(5)

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_non_integer_and_nested_requests_rejected(self, engine):
        """A float source must not be truncated to a peer it does not
        name, and a nested list must not reach the walker."""
        for net in build_pair(n=30, seed=1):
            for sources, keys, message in (
                ([1.7, 2.2], [5, 6], "sources must be integers, got dtype float64"),
                ([1, 2], np.asarray([5.0, 6.0]), "keys must be integers, got dtype float64"),
                ([True, False], [5, 6], "sources must be integers, got dtype bool"),
                ([1, 2], ["5", "6"], "keys must be integers, got dtype <U1"),
                ([[1, 2]], [[5, 6]], r"sources must be one-dimensional, got shape \(1, 2\)"),
                ([1, 2], np.zeros((2, 1), dtype=np.uint64),
                 r"keys must be one-dimensional, got shape \(2, 1\)"),
            ):
                with pytest.raises(ValueError, match=message):
                    batch_route(net, sources, keys, engine=engine)

    def test_stream_checks_requests_like_batch_route(self):
        """Streaming converts sources and keys once, up front, through the
        engine's own checks: a float source is not truncated to a peer
        before chunking, and a fractional chunk size is refused."""
        for net in build_pair(n=30, seed=1):
            for sources, keys, message in (
                (np.array([0.5, 1.9]), [5, 6], "sources must be integers, got dtype float64"),
                ([0, 1], [5.0, 6.5], "keys must be integers, got dtype float64"),
                ([[0, 1]], [5, 6], r"sources must be one-dimensional, got shape \(1, 2\)"),
            ):
                with pytest.raises(ValueError, match=message):
                    stream_batch_route(net, sources, keys)
            for size in (1.5, 0):
                with pytest.raises(ValueError, match=f"chunk_size must be an integer >= 1, got {size}"):
                    stream_batch_route(net, [0, 1], [5, 6], chunk_size=size)
            assert stream_batch_route(net, [0, 1], [5, 6], chunk_size=1).lookups == 2

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_integer_request_forms_accepted(self, engine):
        for net in build_pair(n=30, seed=1):
            want = [net.owner_of(5), net.owner_of(6)]
            for sources, keys in (
                ([1, 2], [5, 6]),
                ((1, 2), (5, 6)),
                (np.asarray([1, 2], dtype=np.uint8), np.asarray([5, 6], dtype=np.int32)),
                ([1, 2], [5 + net.space.size, 6 - net.space.size]),  # keys wrap
            ):
                result = batch_route(net, sources, keys, engine=engine)
                assert result.owner.tolist() == want
                assert result.sources.tolist() == [1, 2] and result.keys.tolist() == [5, 6]
            assert batch_route(net, 1, 5, engine=engine).owner.tolist() == want[:1]
            assert len(batch_route(net, [], [], engine=engine)) == 0

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_python_ints_on_both_sides_of_two_to_the_63(self, engine):
        # numpy types this key list as float64; every element is an int.
        ids = np.asarray([5, 2**62, 2**63 + 9, 2**64 - 3], dtype=np.uint64)
        net = ChordNetwork(IdSpace(64), ids)
        keys = [2**63 + 5, 7, 2**64 - 1]
        result = batch_route(net, [0, 1, 2], keys, engine=engine)
        assert result.keys.tolist() == keys
        assert result.owner.tolist() == [net.owner_of(k) for k in keys]
        with pytest.raises(ValueError, match="keys must be integers, got dtype float64"):
            batch_route(net, [0, 1], [2**63 + 5, 7.5], engine=engine)

    def test_unknown_engine_rejected(self):
        chord, _ = build_pair(n=30, seed=1)
        sources, keys = make_requests(chord, 4, 1)
        with pytest.raises(ValueError):
            batch_route(chord, sources, keys, engine="gpu")


class TestFallback:
    def test_supports_batch_ignores_tracing(self):
        chord, hieras = build_pair(n=40, seed=8)
        for net in (chord, hieras):
            assert supports_batch(net)
            net.enable_tracing(SpanRecorder(registry=MetricsRegistry()))
            assert supports_batch(net)

    def test_subclass_not_batchable(self):
        class WeirdChord(ChordNetwork):
            def route(self, source, key):  # pragma: no cover - marker only
                return super().route(source, key)

        rng = np.random.default_rng(0)
        space = IdSpace(12)
        net = WeirdChord(space, space.sample_unique_ids(20, rng))
        assert not supports_batch(net)


def _traced(net, sources, keys, sinks=(), *, engine="batch", paths=False, calls=1):
    """Route with a recorder attached, in ``calls`` equal slices; the
    registry snapshot as JSON bytes, the registry, and the last result."""
    registry = MetricsRegistry()
    net.enable_tracing(SpanRecorder(registry, sinks))
    try:
        for part in np.array_split(np.arange(len(sources)), calls):
            result = batch_route(net, sources[part], keys[part], paths=paths, engine=engine)
    finally:
        net.disable_tracing()
        for sink in sinks:
            sink.close()
    return json.dumps(registry.snapshot(), sort_keys=True), registry, result


class TestTracedBatch:
    """With a recorder attached ``batch_route`` still runs the kernels and
    hands the recorder the arrays: the registry and the span stream come
    out byte for byte as the scalar loop leaves them."""

    @pytest.mark.parametrize("policy", ["transitions", "always", "off"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_span_stream_equals_scalar_loop(self, depth, policy, tmp_path):
        nets = build_pair(
            n=90, depth=depth, seed=17, successor_list_r=6, successor_list_policy=policy
        )
        for net in nets:
            sources, keys = make_requests(net, 200, 17)
            out = tmp_path / f"{net.span_label}.jsonl"
            want_reg, _, _ = _traced(net, sources, keys, [JsonlSink(out)], engine="scalar")
            want = out.read_bytes()
            got_reg, _, traced = _traced(net, sources, keys, [JsonlSink(out)])
            assert out.read_bytes() == want
            assert want.count(b"\n") == 200
            assert got_reg == want_reg
            assert traced.paths is None  # the caller did not ask for paths
            assert_identical(traced, batch_route(net, sources, keys))
            _, _, with_paths = _traced(net, sources, keys, [JsonlSink(out)], paths=True)
            assert_identical(with_paths, batch_route(net, sources, keys, paths=True))

    @pytest.mark.parametrize("policy", ["transitions", "always", "off"])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("summary", [False, True])
    def test_registry_equals_scalar_loop(self, depth, policy, summary):
        """The bulk fold against the scalar ``record(span)`` reference:
        same snapshot bytes, and no counter the spans would not create."""
        nets = build_pair(
            n=90, depth=depth, seed=19, successor_list_r=6, successor_list_policy=policy
        )
        for net in nets:
            sources, keys = make_requests(net, 300, 19)
            sources[:5] = [net.owner_of(int(k)) for k in keys[:5]]  # zero-hop lanes
            want_sinks = [SummarySink()] if summary else []
            got_sinks = [SummarySink()] if summary else []
            want, want_reg, _ = _traced(net, sources, keys, want_sinks, engine="scalar")
            got, got_reg, _ = _traced(net, sources, keys, got_sinks, calls=3)
            assert got == want
            assert set(got_reg.counters) == set(want_reg.counters)
            assert (f"{net.span_label}.low_layer_hops" in got_reg.counters) == (
                net is not nets[0]
            )
            for a, b in zip(got_sinks, want_sinks):
                assert a.registry.snapshot() == b.registry.snapshot()
                assert a.summary(net.span_label) == b.summary(net.span_label)

    def test_empty_batch_creates_no_metric(self):
        chord, _ = build_pair(n=30, seed=1)
        got, _, _ = _traced(chord, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64))
        assert got == json.dumps(MetricsRegistry().snapshot(), sort_keys=True)

    def test_zero_hop_batch_creates_no_layer_counter(self):
        for net in build_pair(n=30, seed=1):
            keys = np.asarray([net.id_of(4)], dtype=np.uint64)
            sources = np.asarray([4], dtype=np.int64)
            want, _, _ = _traced(net, sources, keys, engine="scalar")
            got, registry, _ = _traced(net, sources, keys)
            assert got == want
            label = net.span_label
            assert set(registry.counters) == {f"{label}.lookups", f"{label}.total_hops"}

    def test_one_wide_call_equals_sixteen(self):
        """``total`` accumulates left to right from the running total, so
        how a trace is cut into calls cannot show in the registry."""
        for net in build_pair(n=90, depth=3, seed=23):
            sources, keys = make_requests(net, 65536, 23)
            whole, _, _ = _traced(net, sources, keys)
            parts, _, _ = _traced(net, sources, keys, calls=16)
            assert whole == parts

    def test_paths_only_for_sinks_that_keep_spans(self, monkeypatch):
        asked = []
        walk = batch_module.batch_route_chord

        def spy(net, sources, keys, *, paths=False):
            asked.append(paths)
            return walk(net, sources, keys, paths=paths)

        monkeypatch.setattr(batch_module, "batch_route_chord", spy)
        _, net = build_pair(n=60, depth=3, seed=29)
        sources, keys = make_requests(net, 50, 29)
        _traced(net, sources, keys)
        _traced(net, sources, keys, [SummarySink()])
        net.enable_tracing(SpanRecorder(MetricsRegistry()))
        try:
            stream_batch_route(net, sources, keys, chunk_size=20)
        finally:
            net.disable_tracing()
        assert asked == [False] * 5
        memory = MemorySink()
        _, _, result = _traced(net, sources, keys, [memory])
        assert asked[-1] is True and result.paths is None
        assert len(memory) == 50


class TestExperimentWiring:
    def test_collect_routes_engines_agree(self):
        chord, hieras = build_pair(n=80, depth=3, seed=13)
        from repro.workloads.requests import generate_requests

        trace = generate_requests(
            300, chord.n_peers, chord.space, seed=np.random.default_rng(13)
        )
        for net in (chord, hieras):
            a = collect_routes(net, trace, engine="scalar")
            b = collect_routes(net, trace, engine="batch")
            assert np.array_equal(a.hops, b.hops)
            assert np.array_equal(a.latency_ms, b.latency_ms)
            assert np.array_equal(a.low_layer_hops, b.low_layer_hops)
            assert np.array_equal(a.top_layer_hops, b.top_layer_hops)
            assert np.array_equal(a.low_layer_latency_ms, b.low_layer_latency_ms)


class TestBatchMembership:
    """add_peers/remove_peers/revive_peers ≡ their sequential singles."""

    def _state(self, net):
        return (
            [int(v) for v in net.ring.ids],
            [net.is_alive(p) for p in range(len(net._id_of_peer))],
        )

    def test_chord_remove_matches_sequential(self):
        a, _ = build_pair(n=60, seed=21)
        b, _ = build_pair(n=60, seed=21)
        victims = [3, 17, 42, 5]
        for v in victims:
            a.remove_peer(v)
        b.remove_peers(victims)
        assert self._state(a) == self._state(b)

    def test_hieras_remove_and_revive_match_sequential(self):
        _, a = build_pair(n=60, depth=3, seed=22)
        _, b = build_pair(n=60, depth=3, seed=22)
        victims = [8, 1, 33]
        for v in victims:
            a.remove_peer(v)
        b.remove_peers(victims)
        assert self._state(a) == self._state(b)
        for v in victims:
            a.revive_peers([v])
        b.revive_peers(victims)
        assert self._state(a) == self._state(b)
        for layer in range(2, a.depth + 1):
            assert a.ring_sizes(layer).tolist() == b.ring_sizes(layer).tolist()

    def test_chord_add_peers_matches_sequential(self):
        a, _ = build_pair(n=40, seed=23)
        b, _ = build_pair(n=40, seed=23)
        space = a.space
        fresh = [
            int(v)
            for v in space.sample_unique_ids(200, np.random.default_rng(99))
            if int(v) not in a.ring
        ][:5]
        idx_a = [a.add_peer(v) for v in fresh]
        idx_b = b.add_peers(fresh)
        assert idx_a == idx_b
        assert self._state(a) == self._state(b)

    def test_hieras_add_peers_matches_sequential(self):
        _, a = build_pair(n=40, depth=2, seed=24)
        _, b = build_pair(n=40, depth=2, seed=24)
        names = a.ring_name_of(0, 2)
        fresh = [
            int(v)
            for v in a.space.sample_unique_ids(200, np.random.default_rng(98))
            if int(v) not in a.global_ring
        ][:4]
        idx_a = [a.add_peer(v, [names]) for v in fresh]
        idx_b = b.add_peers(fresh, [[names] for _ in fresh])
        assert idx_a == idx_b
        assert self._state(a) == self._state(b)

    def test_remove_batch_is_atomic(self):
        chord, _ = build_pair(n=10, seed=25)
        before = self._state(chord)
        with pytest.raises(ValueError, match="not alive"):
            chord.remove_peers([2, 2])
        assert self._state(chord) == before
        with pytest.raises(ValueError, match="last peer"):
            chord.remove_peers(list(range(10)))
        assert self._state(chord) == before

    def test_add_batch_rejects_duplicates(self):
        chord, _ = build_pair(n=10, seed=26)
        existing = int(chord.ring.ids[0])
        with pytest.raises(ValueError, match="already present"):
            chord.add_peers([existing])
        free = next(
            k for k in range(chord.space.size) if k not in chord.ring
        )
        with pytest.raises(ValueError, match="already present"):
            chord.add_peers([free, free])

    def test_empty_batches_are_noops(self):
        chord, hieras = build_pair(n=10, seed=27)
        for net in (chord, hieras):
            before = self._state(net)
            net.remove_peers([])
            net.revive_peers([])
            before_ring = net is hieras and net.rings_at_layer(2)
            assert self._state(net) == before
            if net is hieras:
                # no rebuild happened: the cached mapping is the same object
                assert net.rings_at_layer(2) is before_ring
        assert chord.add_peers([]) == []

    def test_routes_after_batch_churn(self):
        _, net = build_pair(n=50, depth=2, seed=28, successor_list_r=4)
        net.remove_peers([2, 7, 11, 30])
        sources = np.asarray(
            [p for p in range(50) if net.is_alive(p)][:20], dtype=np.int64
        )
        keys = make_requests(net, 20, 28)[1]
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )


class TestCachedAccessors:
    def test_ring_sizes_cached_and_fresh_after_rebuild(self):
        _, net = build_pair(n=60, depth=3, seed=30)
        sizes = net.ring_sizes(2)
        assert sizes is net.ring_sizes(2)  # cached, not rebuilt per call
        assert not sizes.flags.writeable
        total_before = int(sizes.sum())
        assert total_before == net.n_peers
        net.remove_peer(0)
        assert int(net.ring_sizes(2).sum()) == net.n_peers
        assert net.ring_sizes(2) is not sizes

    def test_rings_at_layer_cached(self):
        _, net = build_pair(n=60, depth=3, seed=31)
        assert net.rings_at_layer(2) is net.rings_at_layer(2)
        with pytest.raises(ValueError):
            net.ring_sizes(1)
        with pytest.raises(ValueError):
            net.ring_sizes(net.depth + 1)
