"""Tests for repro.scale and the streamed routing aggregates.

Covers the scale package's three exports (transit-stub sizing, the
uncached scale build, the struct-of-arrays memory audit), the
``stream_batch_route`` aggregates (exact agreement with a direct
``batch_route`` call, chunk-size invariance of every integer statistic
and the owner checksum), the peak-RSS helper, and the shape and contract
claims of the ``BENCH_scale`` document at tiny N (the envelope,
reproducibility and writer checks every bench shares live in
``tests/test_bench.py``).
"""

import copy

import numpy as np
import pytest

from repro.engine import batch_route, stream_batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.experiments.scale_exp import report, run_bench
from repro.scale import build_scale_bundle, hot_state_bytes, scale_ts_params
from repro.topology.transit_stub import TransitStubParams
from repro.util.proc import peak_rss_mb


class TestScaleTsParams:
    def test_small_sizes_defer_to_for_size(self):
        for n in (320, 2000, 50_000):
            assert scale_ts_params(n) == TransitStubParams.for_size(n)

    def test_large_sizes_bound_stub_blocks(self):
        params = scale_ts_params(1_250_000)
        assert params.stub_domain_size <= 600  # ≈0.26 MB uint8 hop blocks
        assert 0.8 <= params.n_routers / 1_250_000 <= 1.2
        block_bytes = params.stub_domain_size**2  # one byte per router pair
        assert block_bytes < 512 * 1024

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            scale_ts_params(8)


class TestBuildScaleBundle:
    def test_small_config_reproduces_standard_build(self):
        """Below every threshold the scale path is byte-for-byte the
        standard runner: same topology, ids, rings, latencies."""
        config = SimConfig(model="ts", n_peers=300, seed=9)
        std = build_bundle(config)
        scale = build_scale_bundle(config)
        assert np.array_equal(std.node_ids, scale.node_ids)
        assert np.array_equal(std.chord.ring.ids, scale.chord.ring.ids)
        assert np.array_equal(std.chord.ring.peers, scale.chord.ring.peers)
        assert np.array_equal(
            std.hieras.global_ring.ids, scale.hieras.global_ring.ids
        )
        for layer in range(2, std.hieras.depth + 1):
            assert sorted(std.hieras.rings_at_layer(layer)) == sorted(
                scale.hieras.rings_at_layer(layer)
            )
        rng = np.random.default_rng(0)
        us = rng.integers(0, 300, 200)
        vs = rng.integers(0, 300, 200)
        np.testing.assert_array_equal(
            std.peer_latency.pairs(us, vs), scale.peer_latency.pairs(us, vs)
        )

    def test_zero_threshold_builds_streaming_and_agrees(self):
        config = SimConfig(model="ts", n_peers=200, seed=4)
        eager = build_bundle(config)
        streaming = build_scale_bundle(config, streaming_threshold_bytes=0)
        trace = make_trace(eager, 500)
        a = batch_route(eager.hieras, trace.sources, trace.keys)
        b = batch_route(streaming.hieras, trace.sources, trace.keys)
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.latency_ms, b.latency_ms)

    def test_hot_state_bytes_audit(self):
        bundle = build_scale_bundle(SimConfig(model="ts", n_peers=256, seed=3))
        audit = hot_state_bytes(bundle)
        assert audit["chord_bytes"] > 0
        assert audit["hieras_bytes"] > audit["chord_bytes"]
        # interning: pool entries are per *ring*, far fewer than peers
        assert audit["hieras_ring_name_pool_entries"] < 256


class TestStreamBatchRoute:
    @pytest.fixture(scope="class")
    def bundle_and_trace(self):
        bundle = build_bundle(SimConfig(model="ts", n_peers=400, seed=6))
        return bundle, make_trace(bundle, 3000)

    def test_matches_direct_batch_route(self, bundle_and_trace):
        bundle, trace = bundle_and_trace
        for net in (bundle.chord, bundle.hieras):
            direct = batch_route(net, trace.sources, trace.keys)
            stats = stream_batch_route(net, trace.sources, trace.keys, chunk_size=256)
            assert stats.lookups == 3000
            assert stats.hop_sum == int(direct.hops.sum())
            assert stats.hop_max == int(direct.hops.max())
            assert stats.latency_sum_ms == pytest.approx(
                float(direct.latency_ms.sum()), rel=1e-9
            )

    def test_integer_stats_are_chunk_invariant(self, bundle_and_trace):
        bundle, trace = bundle_and_trace
        runs = [
            stream_batch_route(
                bundle.hieras, trace.sources, trace.keys, chunk_size=size
            )
            for size in (64, 1000, 3000, 10_000)
        ]
        first = runs[0]
        for other in runs[1:]:
            assert other.hop_sum == first.hop_sum
            assert other.hop_max == first.hop_max
            assert other.owner_checksum == first.owner_checksum
            np.testing.assert_array_equal(other.hop_histogram, first.hop_histogram)
            np.testing.assert_array_equal(
                other.per_layer_hop_sum, first.per_layer_hop_sum
            )

    def test_checksum_is_order_sensitive(self, bundle_and_trace):
        """The checksum weighs lanes by global index: permuted owners
        must not collide (a plain sum would)."""
        bundle, trace = bundle_and_trace
        fwd = stream_batch_route(bundle.chord, trace.sources, trace.keys)
        rev = stream_batch_route(
            bundle.chord, trace.sources[::-1].copy(), trace.keys[::-1].copy()
        )
        assert fwd.owner_checksum != rev.owner_checksum

    def test_as_dict_shape(self, bundle_and_trace):
        bundle, trace = bundle_and_trace
        stats = stream_batch_route(bundle.hieras, trace.sources, trace.keys)
        doc = stats.as_dict()
        assert doc["lookups"] == 3000
        assert doc["mean_hops"] == pytest.approx(stats.hop_sum / 3000)
        assert isinstance(doc["owner_checksum"], int)
        assert sum(doc["hop_histogram"]) == 3000


class TestPeakRss:
    def test_positive_and_monotone(self):
        first = peak_rss_mb()
        assert first > 0.0
        ballast = np.ones(4 << 20, dtype=np.uint8)  # +4 MiB
        assert peak_rss_mb() >= first
        del ballast


class TestBenchScaleDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_bench(sizes=(192, 320))

    def test_shape_and_contracts(self, doc):
        cells = doc["metrics"]["cells"]
        assert set(cells) == {"n192", "n320"}
        for cell in cells.values():
            assert cell["stacks_agree_owners"] is True
            mem = cell["membership"]
            assert mem["full_rebuilds_during_waves_chord"] == 0
            assert mem["full_rebuilds_during_waves_hieras"] == 0
            assert mem["incremental_matches_rebuild"] is True
            assert cell["memory"]["hieras_bytes"] > 0
            # Small cells fill every stub block at construction: 1 B per pair.
            params = scale_ts_params(SimConfig(model="ts", n_peers=cell["n_peers"]).n_routers)
            assert cell["memory"]["latency_block_fills"] == params.n_stub_domains
            blocks = params.n_stub_domains * params.stub_domain_size**2
            assert blocks < cell["memory"]["latency_bytes"] < blocks + 128 * params.n_routers
        assert cells["n192"]["engines_agree"] is True
        for n in (192, 320):
            assert f"build_n{n}" in doc["phases"]
            assert doc["phases"][f"hieras_lookup_n{n}"]["lookups_per_s"] > 0

    def test_every_contract_is_a_claim(self, doc):
        """One gate per bench: each contract bit flips the report to DIVERGES."""
        assert "[DIVERGES]" not in report(doc)
        for path in (
            ("engines_agree",),
            ("stacks_agree_owners",),
            ("membership", "incremental_matches_rebuild"),
        ):
            broken = copy.deepcopy(doc)
            node = broken["metrics"]["cells"]["n192"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = False
            assert "[DIVERGES]" in report(broken), path
        broken = copy.deepcopy(doc)
        broken["metrics"]["cells"]["n320"]["membership"]["full_rebuilds_during_waves_hieras"] = 1
        assert "[DIVERGES]" in report(broken)

    def test_memory_gate_is_a_claim_on_the_rise_in_peak_rss(self, doc):
        """3 150 MB (the N=10⁶ peak with float32 blocks) from a fresh
        process diverges; the same peak reached before the bench began
        is not the bench's."""
        heavy = copy.deepcopy(doc)
        heavy["phases"]["start"]["peak_rss_mb"] = 65.0
        heavy["phases"]["peak_rss"]["peak_rss_mb"] = 3150.0
        assert "[DIVERGES] the run raises the process's peak RSS by 3085 MB" in report(heavy)
        heavy["phases"]["peak_rss"]["peak_rss_mb"] = 1570.0
        assert "[ok] the run raises the process's peak RSS by 1505 MB" in report(heavy)
        heavy["phases"]["start"]["peak_rss_mb"] = heavy["phases"]["peak_rss"]["peak_rss_mb"] = 4500.0
        assert "[DIVERGES]" not in report(heavy)
