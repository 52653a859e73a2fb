"""Tests for repro.scale and the streamed routing aggregates.

Covers transit-stub sizing at every size (``for_size``, which absorbed
the scale package's own sizing rule), the uncached build, the
struct-of-arrays memory audit, the ``stream_batch_route`` aggregates
(exact agreement with a direct ``batch_route`` call, chunk-size
invariance of every integer statistic and the owner checksum), the
peak-RSS helper, and the shape and contract claims of the
``BENCH_scale`` document at tiny N (the envelope, reproducibility and
writer checks every bench shares live in ``tests/test_bench.py``).
"""

import copy

import numpy as np
import pytest

from repro.engine import batch_route, stream_batch_route
from repro.experiments import runner
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.experiments.scale_exp import (
    LATENCY_RATIO_BOUND,
    PAPER_LANDMARKS_RATIO_BOUND,
    report,
    run_bench,
)
from repro.scale import hot_state_bytes
from repro.topology.transit_stub import TransitStubParams
from repro.util.proc import peak_rss_mb

#: ``(n_transit_domains, transit_nodes_per_domain, stubs_per_transit_node,
#: stub_domain_size, stub_edge_prob)`` per router count, recorded from the
#: sizing rule the scale package used before ``for_size`` absorbed it
#: (which deferred to ``for_size`` below 100 000 routers).
SIZING_TABLE = {
    80: (2, 2, 8, 2, 0.5),
    1_250: (2, 2, 8, 39, 0.038461538461538464),
    5_120: (3, 2, 8, 107, 0.014018691588785047),
    81_920: (4, 2, 8, 1280, 0.001171875),
    99_999: (4, 2, 8, 1562, 0.0009603072983354673),
    100_000: (4, 8, 8, 390, 0.0038461538461538464),
    163_840: (5, 8, 8, 512, 0.0029296875),
    1_250_000: (38, 8, 8, 514, 0.0029182879377431907),
}


def _fields(params):
    return (
        params.n_transit_domains,
        params.transit_nodes_per_domain,
        params.stubs_per_transit_node,
        params.stub_domain_size,
        params.stub_edge_prob,
    )


class TestScaleTsParams:
    @pytest.mark.parametrize("n", sorted(SIZING_TABLE))
    def test_for_size_matches_the_recorded_sizing(self, n):
        params = TransitStubParams.for_size(n)
        assert _fields(params) == SIZING_TABLE[n]
        assert params == TransitStubParams(*SIZING_TABLE[n][:4], stub_edge_prob=SIZING_TABLE[n][4])

    def test_overrides_hold_in_the_large_regime(self):
        params = TransitStubParams.for_size(1_250_000, stub_edge_prob=0.1)
        assert _fields(params) == (38, 8, 8, 514, 0.1)
        wider = TransitStubParams.for_size(1_250_000, n_transit_domains=40, stub_domain_size=500)
        assert _fields(wider)[:4] == (40, 8, 8, 500)

    def test_large_sizes_bound_stub_blocks(self):
        params = TransitStubParams.for_size(1_250_000)
        assert params.stub_domain_size <= 600  # ≤ 0.18 MB packed uint8 hop blocks
        assert 0.8 <= params.n_routers / 1_250_000 <= 1.2
        size = params.stub_domain_size
        block_bytes = size * (size + 1) // 2  # one byte per router pair, stored once
        assert block_bytes < 256 * 1024

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match="need >= 16 routers"):
            TransitStubParams.for_size(8)


def _assert_same_deployment(a, b):
    assert np.array_equal(a.node_ids, b.node_ids)
    assert np.array_equal(a.attachment.router_of_peer, b.attachment.router_of_peer)
    assert np.array_equal(a.attachment.landmark_routers, b.attachment.landmark_routers)
    assert np.array_equal(a.topology.edges, b.topology.edges)
    for mine, theirs in ((a.chord, b.chord), (a.hieras, b.hieras)):
        for x, y in zip(mine._layer_plan(), theirs._layer_plan(), strict=True):
            assert x.ring_names == y.ring_names
            for ring_x, ring_y in zip(x.rings, y.rings, strict=True):
                assert np.array_equal(ring_x.ids, ring_y.ids)
                assert np.array_equal(ring_x.peers, ring_y.peers)
    rng = np.random.default_rng(0)
    us = rng.integers(0, len(a.node_ids), 200)
    vs = rng.integers(0, len(a.node_ids), 200)
    np.testing.assert_array_equal(a.peer_latency.pairs(us, vs), b.peer_latency.pairs(us, vs))


class TestBuildScaleBundle:
    def test_uncached_build_leaves_the_cache_and_equals_the_cached_one(self, monkeypatch):
        """``cache=False`` neither reads nor fills the substrate cache,
        and builds what the cached path builds, array for array."""
        config = SimConfig(model="ts", n_peers=300, seed=9)
        monkeypatch.setattr(runner, "_SUBSTRATES", {})
        uncached = build_bundle(config, cache=False)
        assert runner._SUBSTRATES == {}
        cached = build_bundle(config)
        assert len(runner._SUBSTRATES) == 1
        assert uncached.topology is not cached.topology
        _assert_same_deployment(uncached, cached)
        # ... and a cached substrate is not read either.
        again = build_bundle(config, cache=False)
        assert again.topology is not cached.topology
        _assert_same_deployment(again, cached)

    def test_zero_threshold_builds_streaming_and_agrees(self):
        config = SimConfig(model="ts", n_peers=200, seed=4)
        eager = build_bundle(config)
        streaming = build_bundle(config, cache=False, streaming_threshold_bytes=0)
        trace = make_trace(eager, 500)
        a = batch_route(eager.hieras, trace.sources, trace.keys)
        b = batch_route(streaming.hieras, trace.sources, trace.keys)
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.latency_ms, b.latency_ms)

    def test_a_latency_budget_gets_its_own_cache_entry(self, monkeypatch):
        config = SimConfig(model="ts", n_peers=200, seed=4)
        monkeypatch.setattr(runner, "_SUBSTRATES", {})
        default = build_bundle(config)
        lazy = build_bundle(config, streaming_threshold_bytes=0)
        assert len(runner._SUBSTRATES) == 2
        assert lazy.peer_latency.model is not default.peer_latency.model
        assert lazy.peer_latency.model.cache_misses < default.peer_latency.model.cache_misses
        assert build_bundle(config, streaming_threshold_bytes=0).topology is lazy.topology
        assert build_bundle(config).topology is default.topology

    def test_hot_state_bytes_audit(self):
        bundle = build_bundle(SimConfig(model="ts", n_peers=256, seed=3), cache=False)
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
            assert cell["n_landmarks"] == 4  # below the landmark rule's first step
            rings = cell["rings"]
            assert rings["lowest_rings"] >= 2
            assert 1 <= rings["median_ring_size"] < cell["n_peers"]
            assert rings["median_ring_size"] / cell["n_peers"] <= rings["largest_ring_share"] < 1.0
            # Small cells fill every stub block at construction: 1 B per
            # router pair, each pair stored once.
            params = TransitStubParams.for_size(SimConfig(model="ts", n_peers=cell["n_peers"]).n_routers)
            assert cell["memory"]["latency_block_fills"] == params.n_stub_domains
            size = params.stub_domain_size
            blocks = params.n_stub_domains * size * (size + 1) // 2
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

    def test_latency_gate_is_a_claim_on_every_cell(self, doc):
        """HIERAS ÷ Chord above the bound in any one cell diverges; the
        paper boundaries' 0.989 at N=10⁶ would, and so would a cell from
        4 096 peers that lost the landmark rule's gain (0.637 at 10⁶)."""
        assert f"[ok] HIERAS's mean lookup latency is at most {LATENCY_RATIO_BOUND} ×" in report(doc)
        assert LATENCY_RATIO_BOUND <= 0.65
        for n_peers, bound in ((320, PAPER_LANDMARKS_RATIO_BOUND), (4096, LATENCY_RATIO_BOUND)):
            for ratio, verdict in ((0.989, "[DIVERGES]"), (bound + 0.001, "[DIVERGES]"), (bound, "[ok]")):
                edited = copy.deepcopy(doc)
                cell = edited["metrics"]["cells"]["n320"]
                cell["n_peers"] = n_peers  # the n320 cell's phases, read as a 4 096-peer cell's
                for phase in ("build", "chord_lookup", "hieras_lookup"):
                    edited["phases"][f"{phase}_n{n_peers}"] = doc["phases"][f"{phase}_n320"]
                cell["hieras"]["mean_latency_ms"] = ratio * cell["chord"]["mean_latency_ms"]
                assert f"{verdict} HIERAS's mean lookup latency" in report(edited), (n_peers, ratio)

    def test_memory_gate_is_a_claim_on_the_rise_in_peak_rss(self, doc):
        """3 150 MB (the N=10⁶ peak with float32 blocks) and 1 534 MB
        (square uint8 blocks) from a fresh process diverge; the same peak
        reached before the bench began is not the bench's."""
        heavy = copy.deepcopy(doc)
        heavy["phases"]["start"]["peak_rss_mb"] = 65.0
        heavy["phases"]["peak_rss"]["peak_rss_mb"] = 3150.0
        assert "[DIVERGES] the run raises the process's peak RSS by 3085 MB" in report(heavy)
        heavy["phases"]["peak_rss"]["peak_rss_mb"] = 1534.0
        assert "[DIVERGES] the run raises the process's peak RSS by 1469 MB" in report(heavy)
        heavy["phases"]["peak_rss"]["peak_rss_mb"] = 1290.0
        assert "[ok] the run raises the process's peak RSS by 1225 MB" in report(heavy)
        heavy["phases"]["start"]["peak_rss_mb"] = heavy["phases"]["peak_rss"]["peak_rss_mb"] = 4500.0
        assert "[DIVERGES]" not in report(heavy)
