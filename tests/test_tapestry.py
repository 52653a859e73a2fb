"""Tests for the Tapestry baseline (surrogate routing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.pns import digit
from repro.dht.tapestry import TapestryNetwork, TapestryParams
from repro.util.ids import IdSpace


@pytest.fixture(scope="module")
def net():
    space = IdSpace(16)
    ids = space.sample_unique_ids(150, np.random.default_rng(0))
    return TapestryNetwork(space, ids, seed=1)


class TestConstruction:
    def test_digit_width_must_divide_bits(self):
        space = IdSpace(10)
        ids = space.sample_unique_ids(8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TapestryNetwork(space, ids, params=TapestryParams(b=4))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TapestryParams(b=0)
        with pytest.raises(ValueError):
            TapestryParams(pns_samples=0)

    def test_rejects_duplicates(self):
        space = IdSpace(16)
        with pytest.raises(ValueError):
            TapestryNetwork(space, np.asarray([5, 5], dtype=np.uint64))


class TestSurrogateRoot:
    def test_exact_id_is_its_own_root(self, net):
        for peer in (0, 7, 42):
            assert net.owner_of(net.id_of(peer)) == peer

    def test_root_unique_from_any_source(self, net, rng):
        """Surrogate routing's defining property: every source reaches
        the same root for the same key."""
        for _ in range(60):
            k = int(rng.integers(0, net.space.size))
            root = net.owner_of(k)
            for s in rng.integers(0, net.n_peers, 5):
                assert net.route(int(s), k).owner == root

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_root_property(self, key):
        space = IdSpace(16)
        ids = space.sample_unique_ids(40, np.random.default_rng(3))
        net = TapestryNetwork(space, ids, seed=3)
        root = net.owner_of(key)
        for s in (0, 13, 39):
            assert net.route(s, key).owner == root


class TestRouting:
    def test_hops_logarithmic_base_16(self, net, rng):
        hops = [
            net.route(int(rng.integers(0, 150)), int(rng.integers(0, net.space.size))).hops
            for _ in range(300)
        ]
        assert np.mean(hops) <= np.log(150) / np.log(16) + 2.0

    def test_prefix_monotone(self, net, rng):
        """Along a route, the shared prefix with the key never shrinks."""
        for _ in range(80):
            s = int(rng.integers(0, net.n_peers))
            k = int(rng.integers(0, net.space.size))
            r = net.route(s, k)

            def shared(a):
                level = 0
                while level < 4 and digit(a, level, b=4, bits=16) == digit(k, level, b=4, bits=16):
                    level += 1
                return level

            prefixes = [shared(net.id_of(p)) for p in r.path]
            # Surrogate hops can stay at the same level, never go back.
            assert all(b >= a for a, b in zip(prefixes, prefixes[1:]))

    def test_pns_latency_beats_chord(self, small_deployment):
        from repro.dht.chord import ChordNetwork

        attachment, peer_latency, space, ids = small_deployment
        tapestry = TapestryNetwork(space, ids, latency=peer_latency, seed=5)
        chord = ChordNetwork(space, ids, latency=peer_latency)
        rng = np.random.default_rng(6)
        t_lat = c_lat = 0.0
        for _ in range(250):
            s = int(rng.integers(0, 200))
            k = int(rng.integers(0, space.size))
            t_lat += tapestry.route(s, k).latency_ms
            c_lat += chord.route(s, k).latency_ms
        assert t_lat < c_lat

    def test_singleton_network(self):
        space = IdSpace(16)
        net = TapestryNetwork(space, np.asarray([1234], dtype=np.uint64))
        r = net.route(0, 9999)
        assert r.owner == 0 and r.hops == 0
