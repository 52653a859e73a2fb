"""Tests for the unified observability subsystem (repro.metrics)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
from repro.metrics import (
    Histogram,
    HopRecord,
    JsonlSink,
    LookupSpan,
    MemorySink,
    MetricsRegistry,
    SpanRecorder,
    read_jsonl,
)
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.util.ids import IdSpace


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


def _make_span(network="hieras"):
    return LookupSpan(
        network=network,
        source=3,
        key=1234,
        owner=9,
        hops=[
            HopRecord(index=0, src=3, dst=5, layer=2, ring="0121", latency_ms=4.0),
            HopRecord(index=1, src=5, dst=7, layer=2, ring="0121", latency_ms=6.5),
            HopRecord(index=2, src=7, dst=9, layer=1, ring="global", latency_ms=80.0),
        ],
    )


class TestSpans:
    def test_derived_properties(self):
        span = _make_span()
        assert span.n_hops == 3
        assert span.latency_ms == pytest.approx(90.5)
        assert [h.layer for h in span.hops] == [2, 2, 1]
        assert span.low_layer_hops == 2
        assert span.low_layer_hop_share == pytest.approx(2 / 3)

    def test_latency_is_a_left_to_right_add(self):
        """Builtin ``sum()`` is compensated from Python 3.12 on and would
        give 1.0000000000000002e16 here; the span (and the bulk fold that
        must equal it) adds left to right on every interpreter."""
        hops = [
            HopRecord(index=i, src=i, dst=i + 1, layer=1, ring="global", latency_ms=ms)
            for i, ms in enumerate([1e16, 1.0, 1.0])
        ]
        assert LookupSpan("chord", 0, 1, 3, hops=hops).latency_ms == 1e16

    def test_dict_round_trip(self):
        span = _make_span()
        assert LookupSpan.from_dict(span.to_dict()).to_dict() == span.to_dict()

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "lookups.spans.jsonl"
        sink = JsonlSink(path)
        recorder = SpanRecorder(registry=MetricsRegistry(), sinks=[sink])
        spans = [_make_span(), _make_span("chord")]
        for s in spans:
            recorder.record(s)
        recorder.close()
        loaded = read_jsonl(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_jsonl_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()

    def test_recorder_registry_names(self):
        reg = MetricsRegistry()
        rec = SpanRecorder(registry=reg)
        rec.record(_make_span())
        assert reg.counter("hieras.lookups").value == 1
        assert reg.counter("hieras.total_hops").value == 3
        assert reg.counter("hieras.hops.layer2").value == 2
        assert reg.counter("hieras.hops.layer1").value == 1
        assert reg.counter("hieras.low_layer_hops").value == 2
        assert reg.histogram("hieras.latency_ms").count == 1
        assert rec.low_layer_hop_share("hieras") == pytest.approx(2 / 3)

    def test_memory_sink(self):
        sink = MemorySink()
        SpanRecorder(MetricsRegistry(), sinks=[sink]).record(_make_span())
        assert len(sink) == 1
        sink.clear()
        assert len(sink) == 0

    def test_recorder_requires_a_registry(self):
        """Collection is off only by attaching no recorder (``metrics is
        None``); a recorder always folds into a live registry."""
        with pytest.raises(TypeError):
            SpanRecorder(sinks=[MemorySink()])
        rec = SpanRecorder(MetricsRegistry())
        assert not rec.keeps_spans
        assert SpanRecorder(MetricsRegistry(), sinks=[MemorySink()]).keeps_spans


class TestNetworkInstrumentationOffByDefault:
    """The structural no-overhead contract: metrics is None by default."""

    def test_stacks_default_off(self, small_networks):
        chord, hieras = small_networks
        assert chord.metrics is None
        assert hieras.metrics is None

    def test_route_emits_nothing_when_off(self, small_networks):
        chord, hieras = small_networks
        sink = MemorySink()
        # A recorder exists but is never attached — routing must not see it.
        SpanRecorder(MetricsRegistry(), sinks=[sink])
        chord.route(0, 12345)
        hieras.route(0, 12345)
        assert len(sink) == 0

    def test_enable_disable_round_trip(self, small_networks):
        chord, _ = small_networks
        sink = MemorySink()
        rec = SpanRecorder(registry=MetricsRegistry(), sinks=[sink])
        assert chord.enable_tracing(rec) is rec
        chord.route(1, 999)
        chord.disable_tracing()
        chord.route(2, 999)
        assert chord.metrics is None
        assert len(sink) == 1 and sink.spans[0].network == "chord"


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
    """Acceptance: per-hop ring layers with a majority in lower rings."""

    @pytest.fixture(scope="class")
    def traced(self):
        from repro.experiments.config import SimConfig
        from repro.experiments.runner import build_bundle, make_trace

        bundle = build_bundle(SimConfig(n_peers=1000, seed=42))
        sink = MemorySink()
        rec = SpanRecorder(registry=MetricsRegistry(), sinks=[sink])
        bundle.hieras.enable_tracing(rec)
        try:
            for source, key in make_trace(bundle, 3000):
                bundle.hieras.route(int(source), int(key))
        finally:
            bundle.hieras.disable_tracing()
        return bundle, rec, sink

    def test_spans_annotate_every_hop(self, traced):
        bundle, rec, sink = traced
        span = max(sink.spans, key=lambda s: s.n_hops)
        assert span.n_hops == len([h.layer for h in span.hops])
        for hop in span.hops:
            assert 1 <= hop.layer <= bundle.hieras.depth
            if hop.layer == 1:
                assert hop.ring == "global"
            else:
                assert hop.ring == bundle.hieras.ring_name_of(hop.src, hop.layer)
        # Bottom-up routing: layer numbers never increase along the path.
        assert [h.layer for h in span.hops] == sorted([h.layer for h in span.hops], reverse=True)

    def test_span_matches_route_result(self, traced):
        bundle, rec, sink = traced
        span = sink.spans[0]
        result = bundle.hieras.route(span.source, span.key)
        assert [h.dst for h in span.hops] == result.path[1:]
        assert span.latency_ms == pytest.approx(result.latency_ms)
        assert span.low_layer_hops == result.low_layer_hops

    def test_majority_of_hops_in_lower_rings(self, traced):
        _, rec, sink = traced
        share = rec.low_layer_hop_share("hieras")
        assert share > 0.5
        per_span = [s.low_layer_hops for s in sink.spans]
        total = sum(s.n_hops for s in sink.spans)
        assert sum(per_span) / total == pytest.approx(share)
