"""Tests for the unified observability subsystem (repro.metrics)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.metrics import Histogram, MetricsRegistry, SpanRecorder
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.util.ids import IdSpace
from tests.test_engine import build_pair


class TestCountersGauges:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 2.5)
        assert reg.counter("a").value == 5
        assert reg.gauge("g").value == 2.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("a", -1)

    def test_create_on_use(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")


class TestHistogram:
    def test_determinism_same_stream_same_dict(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(50.0, size=2000).tolist() + [0.0, 0.0, 1e-4, 9e6]
        a, b = Histogram("h"), Histogram("h")
        a.record_many(values)
        b.record_many(values)
        assert a.to_dict() == b.to_dict()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_order_independence(self):
        values = [1.0, 5.0, 25.0, 125.0, 0.0, 3.3]
        a, b = Histogram(), Histogram()
        a.record_many(values)
        b.record_many(reversed(values))
        assert a.to_dict() == b.to_dict()

    def test_quantiles_clamped_and_monotone(self):
        h = Histogram()
        h.record_many([2.0, 4.0, 8.0, 16.0, 100.0])
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert h.quantile(0.0) >= 2.0
        assert h.quantile(1.0) <= 100.0

    def test_mean_exact(self):
        h = Histogram()
        h.record_many([1.0, 2.0, 3.0])
        assert h.mean == pytest.approx(2.0)

    def test_zero_and_negative(self):
        h = Histogram()
        h.record(0.0)
        assert h.zero_count == 1 and h.count == 1
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.record(-1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
    def test_bad_value_rejected_before_any_mutation(self, bad):
        """``inf`` used to pass the ``>= 0`` check, bump count/total/max
        and then die in ``math.floor``, leaving the histogram corrupted."""
        h = Histogram()
        h.record(2.0)
        before = h.to_dict()
        message = "histogram values must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            h.record(bad)
        with pytest.raises(ValueError, match=message):
            h.record_many([1.0, 3.0, bad, 4.0])  # all or nothing
        assert h.to_dict() == before

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from([1.1, 1.3, 2.0, 1.0001]),
        start=st.lists(st.floats(0.0, 1e6), max_size=3),
        edges=st.lists(st.integers(-300, 300), max_size=20),
        extra=st.lists(
            st.one_of(
                st.floats(0.0, 1e300),
                st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.0, 1e300]),
                st.integers(0, 40).map(float),
            ),
            max_size=60,
        ),
        seed=st.integers(0, 2**31),
    )
    def test_record_many_equals_record_loop(self, base, start, edges, extra, seed):
        """Bit for bit: every bucket-edge neighbour lands where the scalar
        ``_index`` puts it, and ``total`` is the same left-to-right sum."""
        values = list(extra)
        for i in edges:
            edge = base**i
            values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        np.random.default_rng(seed).shuffle(values)
        bulk, loop = Histogram(base=base), Histogram(base=base)
        for v in start:
            bulk.record(v)
            loop.record(v)
        bulk.record_many(np.asarray(values, dtype=np.float64))
        for v in values:
            loop.record(v)
        assert json.dumps(bulk.to_dict(), sort_keys=True) == json.dumps(
            loop.to_dict(), sort_keys=True
        )
        assert math.copysign(1.0, bulk.min) == math.copysign(1.0, loop.min)

    @pytest.mark.parametrize("toward", [-math.inf, math.inf])
    def test_bucket_edges_survive_an_ulp_of_log_disagreement(self, monkeypatch, toward):
        """``np.log`` and ``math.log`` may differ by an ulp; push every
        ``np.log`` an ulp either way and the buckets must not move."""
        values = [1.1**i for i in range(-300, 301)]
        values += [math.nextafter(v, toward) for v in values] + [1.0, 2.0, 1e300, 5e-324]
        loop = Histogram()
        for v in values:
            loop.record(v)
        log = np.log
        monkeypatch.setattr(np, "log", lambda x: np.nextafter(log(x), toward))
        bulk = Histogram()
        bulk.record_many(np.asarray(values))
        assert bulk.to_dict() == loop.to_dict()


class TestSpans:
    def test_recorder_registry_names(self):
        """Two HIERAS lookups, one of which died in its lower ring: each
        column is booked on the layer ``layers`` names for it."""
        reg = MetricsRegistry()
        rec = SpanRecorder(registry=reg)
        rec.fold("hieras", [3, 1], [90.0, 4.0], [[2, 1], [1, 0]], [2, 1], failed=1, timeouts=2)
        assert reg.counter("hieras.lookups").value == 2
        assert reg.counter("hieras.lookups_failed").value == 1
        assert reg.counter("hieras.timeouts").value == 2
        assert reg.counter("hieras.total_hops").value == 4
        assert reg.counter("hieras.hops.layer2").value == 3
        assert reg.counter("hieras.hops.layer1").value == 1
        assert reg.counter("hieras.low_layer_hops").value == 3
        assert reg.histogram("hieras.latency_ms").total == 94.0
        assert reg.histogram("hieras.hops").count == 2
        assert rec.low_layer_hop_share("hieras") == pytest.approx(3 / 4)

    def test_recorder_requires_a_registry(self):
        """Collection is off only by attaching no recorder (``metrics is
        None``); a recorder always folds into a live registry."""
        with pytest.raises(TypeError):
            SpanRecorder()


class TestNetworkInstrumentationOffByDefault:
    """The structural no-overhead contract: metrics is None by default."""

    def test_stacks_default_off(self, small_networks):
        chord, hieras = small_networks
        assert chord.metrics is None
        assert hieras.metrics is None

    def test_route_emits_nothing_when_off(self, small_networks):
        chord, hieras = small_networks
        registry = MetricsRegistry()
        # A recorder exists but is never attached — routing must not see it.
        SpanRecorder(registry)
        chord.route(0, 12345)
        hieras.route(0, 12345)
        assert registry.snapshot() == MetricsRegistry().snapshot()

    def test_enable_disable_round_trip(self, small_networks):
        chord, _ = small_networks
        registry = MetricsRegistry()
        rec = SpanRecorder(registry=registry)
        assert chord.enable_tracing(rec) is rec
        hops = chord.route(1, 999).hops
        chord.disable_tracing()
        chord.route(2, 999)
        assert chord.metrics is None
        assert set(registry.counters) == {"chord.lookups", "chord.total_hops", "chord.hops.layer1"}
        assert registry.counter("chord.lookups").value == 1
        assert registry.counter("chord.total_hops").value == hops


class TestFailureCounters:
    """A traced ``route_lossy`` run: the registry's failure, timeout and
    per-layer counters are the sums over the returned results."""

    def test_counters_equal_the_route_results(self):
        _, hieras = build_pair(n=400, depth=2, seed=7)
        plan = (
            FaultPlan(seed=3)
            .crash_fraction(at_ms=0.0, fraction=0.5)
            .loss_burst(at_ms=0.0, rate=0.1, duration_ms=1e9)
        )
        injector = FaultInjector(plan, hieras.n_peers, policy=RetryPolicy(successor_fallback=2))
        injector.advance_to(0.0)
        rng = np.random.default_rng(3)
        registry = MetricsRegistry()
        hieras.enable_tracing(SpanRecorder(registry))
        results = []
        try:
            for _ in range(300):
                src = int(rng.integers(hieras.n_peers))
                if not injector.state.is_dead(src):
                    key = int(rng.integers(hieras.space.size))
                    results.append(hieras.route_lossy(src, key, injector=injector))
        finally:
            hieras.disable_tracing()
        # A lookup that died in its lower ring after walking in it: its
        # one hops_per_layer entry is layer 2's, not the global ring's.
        assert any(len(r.hops_per_layer) == 1 and r.hops for r in results)
        assert any(r.success for r in results)
        counters = {name: c.value for name, c in registry.counters.items()}
        assert counters["hieras.lookups"] == len(results)
        assert counters["hieras.lookups_failed"] == sum(not r.success for r in results)
        assert counters["hieras.timeouts"] == sum(r.timeouts for r in results) > 0
        for col, layer in enumerate((2, 1)):
            assert counters[f"hieras.hops.layer{layer}"] == sum(
                r.hops_per_layer[col] for r in results if len(r.hops_per_layer) > col
            )
        assert counters["hieras.low_layer_hops"] == sum(r.hops_per_layer[0] for r in results)
        assert counters["hieras.total_hops"] == sum(r.hops for r in results)


class TestSimCounters:
    def test_protocol_lookup_counters(self):
        space = IdSpace(12)
        rng = np.random.default_rng(0)
        ids = space.sample_unique_ids(8, rng)
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency())
        nodes = [ChordProtocolNode(p, int(ids[p]), space, sim, net) for p in range(8)]
        nodes[0].create_ring(GLOBAL_RING)
        for p in range(1, 8):
            sim.schedule_at(p * 200.0, nodes[p].join_ring, GLOBAL_RING, 0)
        sim.run(until=20_000, max_events=2_000_000)
        done = []
        for k in (5, 600, 2100, 4000):
            nodes[2].lookup(k, done.append)
        sim.run(until=sim.now + 10_000, max_events=2_000_000)
        assert nodes[2].lookup_count == 4
        # (key, owner peer, owner id, hops, ring), in completion order.
        assert [(o.key, o.owner_peer, o.owner_id, o.hops, o.ring) for o in done] == [
            (5, 7, 67, 2, GLOBAL_RING),
            (600, 5, 717, 2, GLOBAL_RING),
            (4000, 7, 67, 2, GLOBAL_RING),
            (2100, 2, 2293, 3, GLOBAL_RING),
        ]


class TestRegistryMergeAndSnapshot:
    def test_snapshot_stable_and_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)  # must not raise


class TestHierasSpanLayers:
    """Acceptance: hops booked per ring layer, a majority in lower rings."""

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.experiments.config import SimConfig
        from repro.experiments.runner import build_bundle, make_trace

        bundle = build_bundle(SimConfig(n_peers=1000, seed=42))
        rec = SpanRecorder(registry=MetricsRegistry())
        bundle.hieras.enable_tracing(rec)
        try:
            results = [bundle.hieras.route(int(s), int(k)) for s, k in make_trace(bundle, 3000)]
        finally:
            bundle.hieras.disable_tracing()
        return bundle, rec, results

    def test_spans_annotate_every_hop(self, traced):
        """Each hop runs in the layer ``hops_per_layer`` books it on
        (lowest first): a lower-ring hop stays inside its source's ring,
        and layer numbers never increase along the path."""
        bundle, _, results = traced
        hieras = bundle.hieras
        for r in results:
            assert len(r.hops_per_layer) == hieras.depth
            layers = [
                layer
                for layer, hops in zip(range(hieras.depth, 0, -1), r.hops_per_layer)
                for _ in range(hops)
            ]
            assert len(layers) == r.hops
            assert layers == sorted(layers, reverse=True)
            for layer, a, b in zip(layers, r.path, r.path[1:]):
                if layer >= 2:
                    assert hieras.ring_name_of(a, layer) == hieras.ring_name_of(b, layer)

    def test_span_matches_route_result(self, traced):
        bundle, rec, results = traced
        reg = rec.registry
        assert reg.counter("hieras.lookups").value == len(results)
        assert reg.counter("hieras.total_hops").value == sum(r.hops for r in results)
        for layer in range(1, bundle.hieras.depth + 1):
            col = bundle.hieras.depth - layer
            assert reg.counter(f"hieras.hops.layer{layer}").value == sum(
                r.hops_per_layer[col] for r in results
            )
        latency = Histogram()
        latency.record_many([r.latency_ms for r in results])
        assert reg.histogram("hieras.latency_ms").to_dict() == latency.to_dict()

    def test_majority_of_hops_in_lower_rings(self, traced):
        _, rec, results = traced
        share = rec.low_layer_hop_share("hieras")
        assert share > 0.5
        total = sum(r.hops for r in results)
        assert sum(r.low_layer_hops for r in results) / total == pytest.approx(share)
