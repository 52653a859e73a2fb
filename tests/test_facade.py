"""Tests for the quick_network facade."""

import numpy as np
import pytest

from repro import NetworkBundle, quick_network
from repro.experiments import runner
from repro.experiments.config import SimConfig


@pytest.fixture(scope="module")
def bundle():
    return quick_network(n_peers=96, n_landmarks=4, depth=2, seed=5)


class TestQuickNetwork:
    def test_bundle_type_and_fields(self, bundle):
        assert isinstance(bundle, NetworkBundle)
        assert bundle.hieras.n_peers == 96
        assert bundle.chord.n_peers == 96
        assert bundle.attachment.n_landmarks == 4
        assert bundle.topology.is_connected()

    def test_route_and_route_chord_agree(self, bundle):
        for key in (0, 12345, 2**31):
            assert bundle.route(0, key).owner == bundle.route_chord(0, key).owner

    def test_deterministic(self):
        a = quick_network(n_peers=64, seed=9)
        b = quick_network(n_peers=64, seed=9)
        ra = a.route(3, 777)
        rb = b.route(3, 777)
        assert ra.path == rb.path
        assert ra.latency_ms == rb.latency_ms

    def test_seed_changes_network(self):
        a = quick_network(n_peers=64, seed=1)
        b = quick_network(n_peers=64, seed=2)
        assert a.hieras.id_of(0) != b.hieras.id_of(0) or a.route(0, 5).path != b.route(0, 5).path

    def test_depth_parameter(self):
        bundle = quick_network(n_peers=64, depth=3, seed=3)
        assert bundle.hieras.depth == 3
        assert len(bundle.route(0, 99).hops_per_layer) == 3

    def test_latency_wiring(self, bundle):
        """The bundle's peer latency view must drive route latencies."""
        r = bundle.route(1, 424242)
        if r.hops:
            manual = sum(
                bundle.peer_latency.pair(a, b)
                for a, b in zip(r.path[:-1], r.path[1:])
            )
            assert r.latency_ms == pytest.approx(manual)


class TestIsTheExperimentsPipeline:
    """The facade is ``build_bundle(SimConfig(...))`` repackaged — the
    network a user builds is the network the figures route on."""

    @pytest.mark.parametrize("n, seed, depth, landmarks", [(96, 5, 2, 4), (150, 8, 3, 6)])
    def test_equals_build_bundle(self, n, seed, depth, landmarks):
        config = SimConfig(n_peers=n, seed=seed, depth=depth, n_landmarks=landmarks)
        quick = quick_network(n, seed=seed, depth=depth, n_landmarks=landmarks)
        runner._SUBSTRATES.clear()  # build the other one from scratch
        runner._SAMPLE_PAIRS.clear()
        built = runner.build_bundle(config)
        assert quick.topology is not built.topology
        assert np.array_equal(quick.attachment.landmark_routers, built.attachment.landmark_routers)
        for mine, theirs in ((quick.chord, built.chord), (quick.hieras, built.hieras)):
            for a, b in zip(mine._layer_plan(), theirs._layer_plan()):
                assert a.ring_names == b.ring_names
                for ring_a, ring_b in zip(a.rings, b.rings):
                    assert np.array_equal(ring_a.ids, ring_b.ids)
                    assert np.array_equal(ring_a.peers, ring_b.peers)
            for src, key in ((0, 99), (7, 2**31), (n - 1, 123456789)):
                ra, rb = mine.route(src, key), theirs.route(src, key)
                assert ra.path == rb.path and ra.latency_ms == rb.latency_ms

    def test_inet_landmarks_are_placed_like_simconfig_places_them(self, monkeypatch):
        """``"auto"`` resolves to random placement on Inet (max–min would
        pick pathological fringe routers there); the facade used to
        spread them."""
        strategies = []
        real = runner.place_landmarks

        def spy(*args, **kw):
            strategies.append(kw["strategy"])
            return real(*args, **kw)

        monkeypatch.setattr(runner, "place_landmarks", spy)
        quick_network(2400, model="inet", seed=977)
        assert strategies == ["random"]

    def test_bad_sizes_fail_through_simconfig(self):
        with pytest.raises(ValueError, match="n_peers must be an integer >= 8"):
            quick_network(n_peers=4)
        with pytest.raises(ValueError, match=r"depth must be an integer in \[2, 4\]"):
            quick_network(n_peers=64, depth=1)


class TestModelParameter:
    def test_brite_model(self):
        bundle = quick_network(n_peers=80, seed=2, model="brite")
        assert bundle.topology.name == "brite"
        r = bundle.route(0, 555)
        assert r.owner == bundle.route_chord(0, 555).owner

    def test_inet_floor_enforced(self):
        with pytest.raises(ValueError, match="3000"):
            quick_network(n_peers=100, model="inet")

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            quick_network(n_peers=64, model="grid")
