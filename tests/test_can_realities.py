"""Tests for CAN multiple realities."""

import numpy as np
import pytest

from repro.dht.can import CanNetwork
from repro.dht.can_realities import MultiRealityCan


@pytest.fixture(scope="module")
def nets():
    peers = np.arange(256)
    single = CanNetwork(peers, seed=21)
    multi = MultiRealityCan(peers, realities=3, seed=21)
    return single, multi


class TestConstruction:
    def test_reality_count(self, nets):
        _, multi = nets
        assert len(multi.realities) == 3
        assert multi.n_peers == 256

    def test_realities_are_independent(self, nets):
        _, multi = nets
        a, b = multi.realities[0], multi.realities[1]
        assert not np.array_equal(a._lo, b._lo)

    def test_rejects_zero_realities(self):
        with pytest.raises(ValueError):
            MultiRealityCan(np.arange(8), realities=0)


class TestOwnership:
    def test_owners_per_reality(self, nets):
        _, multi = nets
        owners = multi.owners_of(12345)
        assert len(owners) == 3
        for can, owner in zip(multi.realities, owners):
            assert can.owner_of(12345) == owner

    def test_canonical_owner_is_reality_zero(self, nets):
        _, multi = nets
        assert multi.owner_of(999) == multi.realities[0].owner_of(999)


class TestRouting:
    def test_fewer_hops_than_single_reality(self, nets, rng):
        """The CAN paper's claim: realities shorten routes."""
        single, multi = nets
        sh = mh = 0
        for _ in range(300):
            k = int(rng.integers(0, 2**32))
            s = int(rng.integers(0, 256))
            sh += single.route(s, k).hops
            mh += multi.route(s, k).hops
        assert mh < 0.9 * sh  # ~0.77x measured with 3 realities at n=256

    def test_single_reality_degenerates(self, rng):
        peers = np.arange(64)
        multi = MultiRealityCan(peers, realities=1, seed=3)
        single = CanNetwork(peers, seed=3 * 7919)
        for _ in range(60):
            k = int(rng.integers(0, 2**32))
            s = int(rng.integers(0, 64))
            assert multi.route(s, k).owner == single.owner_of(k)
