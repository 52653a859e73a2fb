"""Tests for CAN and HIERAS-over-CAN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import BinningScheme
from repro.core.hieras_can import HierasCanNetwork
from repro.dht.can import (
    COORD_MAX,
    CanNetwork,
    CanParams,
    key_point,
    peer_point,
)


class TestConstruction:
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (33, 2), (64, 3), (100, 1)])
    def test_zones_tile_torus(self, n, d):
        net = CanNetwork(np.arange(n), params=CanParams(dimensions=d), seed=1)
        # Python ints: volumes reach 2**(30*d) and overflow int64 past d=2.
        volumes = [np.prod([int(x) for x in hi - lo], dtype=object) for lo, hi in zip(net._lo, net._hi)]
        assert sum(volumes) == COORD_MAX**d

    def test_zones_disjoint(self):
        net = CanNetwork(np.arange(40), seed=2)
        pts = np.random.default_rng(0).integers(0, COORD_MAX, size=(200, 2))
        for p in pts:
            inside = np.all((net._lo <= p) & (p < net._hi), axis=1)
            assert inside.sum() == 1

    def test_deterministic(self):
        a = CanNetwork(np.arange(30), seed=3)
        b = CanNetwork(np.arange(30), seed=3)
        np.testing.assert_array_equal(a._lo, b._lo)

    def test_peer_subset(self):
        peers = np.asarray([5, 17, 99, 200])
        net = CanNetwork(peers, seed=1)
        assert net.n_peers == 4
        assert net.owner_of(12345) in peers

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CanNetwork(np.asarray([1, 1]))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            CanParams(dimensions=0)


class TestNeighbors:
    def test_symmetry(self):
        net = CanNetwork(np.arange(50), seed=4)
        for i, nbrs in enumerate(net._neighbors):
            for j in nbrs:
                assert i in net._neighbors[int(j)]

    def test_no_self_neighbor(self):
        net = CanNetwork(np.arange(50), seed=4)
        for i, nbrs in enumerate(net._neighbors):
            assert i not in nbrs

    def test_mean_neighbors_2d(self):
        net = CanNetwork(np.arange(256), params=CanParams(dimensions=2), seed=5)
        counts = [len(nbrs) for nbrs in net._neighbors]
        assert 3.0 <= np.mean(counts) <= 8.0  # CAN: ~2d for equal zones

    def test_singleton_has_no_neighbors(self):
        net = CanNetwork(np.asarray([7]), seed=1)
        assert len(net._neighbors[net.slot_of_peer(7)]) == 0


class TestPoints:
    def test_key_point_deterministic(self):
        np.testing.assert_array_equal(key_point(42, 2), key_point(42, 2))

    def test_peer_point_differs_from_key_point(self):
        assert not np.array_equal(peer_point(42, 2), key_point(42, 2))

    def test_points_in_range(self):
        for k in (0, 1, 2**31):
            assert key_point(k, 3).max() < COORD_MAX


class TestRouting:
    @pytest.fixture(scope="class")
    def net(self):
        return CanNetwork(np.arange(128), params=CanParams(dimensions=2), seed=6)

    def test_reaches_owner(self, net, rng):
        for _ in range(200):
            s = int(rng.integers(0, 128))
            k = int(rng.integers(0, 2**32))
            r = net.route(s, k)
            assert r.owner == net.owner_of(k)
            assert r.path[0] == s and r.path[-1] == r.owner

    def test_self_route_zero_hops(self, net):
        k = 999
        owner = net.owner_of(k)
        assert net.route(owner, k).hops == 0

    def test_hops_scale_as_sqrt(self, rng):
        hops = {}
        for n in (64, 256):
            net = CanNetwork(np.arange(n), seed=7)
            hops[n] = np.mean(
                [
                    net.route(int(rng.integers(0, n)), int(rng.integers(0, 2**32))).hops
                    for _ in range(150)
                ]
            )
        assert 1.5 < hops[256] / hops[64] < 2.6  # sqrt(4) = 2

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=63))
    @settings(max_examples=50, deadline=None)
    def test_routing_property(self, key, start):
        net = CanNetwork(np.arange(64), seed=8)
        r = net.route(start, key)
        assert r.owner == net.owner_of(key)


class TestHierasCan:
    @pytest.fixture(scope="class")
    def layered(self):
        rng = np.random.default_rng(0)
        n = 200
        distances = rng.uniform(0, 300, size=(n, 4))
        orders = BinningScheme.default_for_depth(3).orders(distances)
        flat = CanNetwork(np.arange(n), seed=9)
        layered = HierasCanNetwork(n, landmark_orders=orders, depth=2, seed=9)
        return flat, layered

    def test_same_owner_as_flat(self, layered, rng):
        flat, net = layered
        for _ in range(150):
            k = int(rng.integers(0, 2**32))
            s = int(rng.integers(0, 200))
            assert net.route(s, k).owner == net.owner_of(k)
            # Both CANs share construction seed => same global zones.
            assert net.owner_of(k) == flat.owner_of(k)

    def test_hops_per_layer(self, layered, rng):
        _, net = layered
        r = net.route(int(rng.integers(0, 200)), int(rng.integers(0, 2**32)))
        assert len(r.hops_per_layer) == 2
        assert sum(r.hops_per_layer) == r.hops

    def test_depth3(self, rng):
        n = 150
        distances = np.random.default_rng(1).uniform(0, 300, size=(n, 4))
        orders = BinningScheme.default_for_depth(3).orders(distances)
        net = HierasCanNetwork(n, landmark_orders=orders, depth=3, seed=2)
        for _ in range(80):
            k = int(rng.integers(0, 2**32))
            r = net.route(int(rng.integers(0, n)), k)
            assert r.owner == net.owner_of(k)
            assert len(r.hops_per_layer) == 3

    def test_rejects_mismatched_orders(self):
        orders = BinningScheme.default_for_depth(2).orders(
            np.random.default_rng(0).uniform(0, 300, size=(10, 2))
        )
        with pytest.raises(ValueError):
            HierasCanNetwork(11, landmark_orders=orders)
