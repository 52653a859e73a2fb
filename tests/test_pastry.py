"""Tests for the Pastry baseline."""

import numpy as np
import pytest

from repro.dht.pastry import PastryNetwork, PastryParams
from repro.dht.pns import digit
from repro.util.ids import IdSpace
from repro.util.intervals import ring_distance


@pytest.fixture(scope="module")
def net():
    space = IdSpace(16)
    ids = space.sample_unique_ids(200, np.random.default_rng(0))
    return PastryNetwork(space, ids, seed=1)


class TestConstruction:
    def test_digit_width_must_divide_bits(self):
        space = IdSpace(10)
        ids = space.sample_unique_ids(8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            PastryNetwork(space, ids, params=PastryParams(b=4))

    def test_rejects_duplicates(self):
        space = IdSpace(16)
        with pytest.raises(ValueError):
            PastryNetwork(space, np.asarray([5, 5], dtype=np.uint64))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PastryParams(b=0)
        with pytest.raises(ValueError, match="leaf_set must be even, got 3"):
            PastryParams(leaf_set=3)
        with pytest.raises(ValueError):
            PastryParams(pns_samples=0)


class TestOwnership:
    def test_owner_is_numerically_closest(self, net, rng):
        for _ in range(200):
            k = int(rng.integers(0, net.space.size))
            owner = net.owner_of(k)
            d_owner = ring_distance(k, net.id_of(owner), net.space.size)
            for p in range(net.n_peers):
                assert d_owner <= ring_distance(k, net.id_of(p), net.space.size)

    def test_differs_from_chord_successor_rule(self, net):
        """Pastry delivers to the closest node in either direction —
        for a key just past a node, that node (not its successor) wins."""
        ids = np.sort(net._sorted_ids)
        a, b = int(ids[0]), int(ids[1])
        key = (a + 1) % net.space.size
        if ring_distance(key, a, net.space.size) < ring_distance(key, b, net.space.size):
            assert net.id_of(net.owner_of(key)) == a


class TestLeafSets:
    def test_leaf_set_members_closest_by_position(self, net):
        leafs = net.leaf_set(0)
        assert len(leafs) == net.params.leaf_set
        assert 0 not in leafs

    def test_small_overlay_leaf_set_is_everyone_else(self):
        space = IdSpace(16)
        for n in (2, 5, 16):
            net = PastryNetwork(space, space.sample_unique_ids(n, np.random.default_rng(n)))
            for peer in range(n):
                assert sorted(net.leaf_set(peer).tolist()) == [q for q in range(n) if q != peer]

    def test_shared_prefix_level(self, net):
        assert net.shared_prefix_level(0x1234, 0x1235) == 3
        assert net.shared_prefix_level(0x1234, 0x2234) == 0
        assert net.shared_prefix_level(0x1234, 0x1234) == 4


class TestRouting:
    def test_reaches_owner(self, net, rng):
        for _ in range(300):
            s = int(rng.integers(0, net.n_peers))
            k = int(rng.integers(0, net.space.size))
            r = net.route(s, k)
            assert r.owner == net.owner_of(k)
            assert r.path[0] == s and r.path[-1] == r.owner

    def test_hops_logarithmic_base_16(self, net, rng):
        hops = [
            net.route(int(rng.integers(0, 200)), int(rng.integers(0, net.space.size))).hops
            for _ in range(400)
        ]
        assert np.mean(hops) <= np.log(200) / np.log(16) + 1.5

    def test_zero_hops_when_source_owns(self, net):
        k = net.id_of(5)
        assert net.route(5, k).hops == 0


class TestPNS:
    def test_entries_prefer_low_latency(self):
        """With PNS, routing-table entries should beat the candidate
        average latency."""
        from repro.topology.latency import CoordinateLatencyModel

        space = IdSpace(16)
        rng = np.random.default_rng(3)
        n = 150
        ids = space.sample_unique_ids(n, rng)
        coords = rng.uniform(0, 200, size=(n, 2))
        latency = CoordinateLatencyModel(coords)
        net = PastryNetwork(space, ids, latency=latency, seed=4)
        gains = []
        for peer in range(20):
            for (level, digit_), entry in net._tables[peer].items():
                # Compare the chosen entry vs the average same-bucket node.
                bucket = [
                    q
                    for q in range(n)
                    if q != peer
                    and net.shared_prefix_level(net.id_of(q), net.id_of(peer)) >= level
                    and digit(net.id_of(q), level, b=4, bits=16) == digit_
                ]
                if len(bucket) >= 4:
                    chosen = latency.pair(peer, entry)
                    avg = np.mean([latency.pair(peer, q) for q in bucket])
                    gains.append(avg - chosen)
        assert np.mean(gains) > 0

    def test_routing_latency_beats_chord(self, small_deployment, small_latency):
        """On a topology, PNS Pastry must have lower per-hop latency
        than topology-blind Chord."""
        from repro.dht.chord import ChordNetwork

        attachment, peer_latency, space, ids = small_deployment
        pastry = PastryNetwork(space, ids, latency=peer_latency, seed=5)
        chord = ChordNetwork(space, ids, latency=peer_latency)
        rng = np.random.default_rng(6)
        p_lat = c_lat = 0.0
        for _ in range(250):
            s = int(rng.integers(0, 200))
            k = int(rng.integers(0, space.size))
            p_lat += pastry.route(s, k).latency_ms
            c_lat += chord.route(s, k).latency_ms
        assert p_lat < c_lat
