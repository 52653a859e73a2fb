"""Tests for the array-backed Chord network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordNetwork
from repro.util.ids import IdSpace
from repro.util.intervals import clockwise_distance


def make_net(ids, bits=16, **kw):
    return ChordNetwork(IdSpace(bits=bits), np.asarray(ids, dtype=np.uint64), **kw)


@pytest.fixture(scope="module")
def net200():
    space = IdSpace(16)
    ids = space.sample_unique_ids(200, np.random.default_rng(0))
    return ChordNetwork(space, ids)


class TestConstruction:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            make_net([5, 5, 9])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_net([])

    def test_peer_id_mapping(self):
        net = make_net([30, 10, 20])
        assert net.id_of(0) == 30
        assert net.id_of(1) == 10
        assert net.ring.ids.tolist() == [10, 20, 30]

    def test_successor_list(self):
        net = make_net([10, 20, 30, 40])
        assert net.successor_list(0, 2) == [1, 2]


class TestOwnership:
    def test_owner_is_key_successor(self, net200, rng):
        ids_sorted = net200.ring.ids
        for key in rng.integers(0, net200.space.size, 200):
            owner = net200.owner_of(int(key))
            owner_id = net200.id_of(owner)
            idx = np.searchsorted(ids_sorted, key)
            expected = int(ids_sorted[idx % len(ids_sorted)])
            assert owner_id == expected

    def test_exact_id_owns_itself(self, net200):
        some_id = int(net200.ring.ids[17])
        owner = net200.owner_of(some_id)
        assert net200.id_of(owner) == some_id


class TestRouting:
    def test_route_reaches_owner(self, net200, rng):
        for _ in range(300):
            s = int(rng.integers(0, net200.n_peers))
            k = int(rng.integers(0, net200.space.size))
            r = net200.route(s, k)
            assert r.path[0] == s
            assert r.path[-1] == r.owner == net200.owner_of(k)
            assert r.hops == len(r.path) - 1
            assert r.hops_per_layer == [r.hops]

    def test_hops_logarithmic(self, net200, rng):
        hops = [
            net200.route(
                int(rng.integers(0, 200)), int(rng.integers(0, net200.space.size))
            ).hops
            for _ in range(800)
        ]
        mean = np.mean(hops)
        half_log = 0.5 * np.log2(200)
        assert half_log - 1.0 < mean < half_log + 2.0
        assert max(hops) <= 16 + 1  # bits + final hop

    def test_zero_latency_by_default(self, net200):
        r = net200.route(0, 12345)
        assert r.latency_ms == 0.0

    def test_latency_accumulates_along_path(self, small_networks, rng):
        chord, _ = small_networks
        r = chord.route(3, int(rng.integers(0, chord.space.size)))
        arr = np.asarray(r.path)
        if len(arr) > 1:
            expected = chord.latency.pairs(arr[:-1], arr[1:]).sum()
            assert r.latency_ms == pytest.approx(expected)

    def test_successor_list_shortcut_same_owner(self, rng):
        space = IdSpace(16)
        ids = space.sample_unique_ids(150, np.random.default_rng(1))
        plain = ChordNetwork(space, ids)
        fast = ChordNetwork(space, ids, successor_list_r=8)
        total_plain = total_fast = 0
        for _ in range(200):
            s = int(rng.integers(0, 150))
            k = int(rng.integers(0, space.size))
            a, b = plain.route(s, k), fast.route(s, k)
            assert a.owner == b.owner
            total_plain += a.hops
            total_fast += b.hops
        assert total_fast < total_plain

    def test_route_from_dead_peer_rejected(self):
        net = make_net([10, 20, 30])
        net.remove_peer(1)
        with pytest.raises(ValueError):
            net.route(1, 5)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=40, unique=True),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=39),
    )
    @settings(max_examples=80, deadline=None)
    def test_route_property(self, ids, key, start):
        net = make_net(ids)
        s = start % net.n_peers
        r = net.route(s, key)
        assert r.owner == net.owner_of(key)
        # Monotone progress toward the key until the final hop (which
        # legitimately lands on the successor just past the key).
        d = [clockwise_distance(net.id_of(p), key, net.space.size) for p in r.path[:-1]]
        assert all(a > b for a, b in zip(d, d[1:])) or len(d) <= 1


class TestMembership:
    def test_add_peer(self):
        net = make_net([10, 30])
        p = net.add_peer(20)
        assert p == 2
        assert net.n_peers == 3
        assert net.owner_of(15) == p

    def test_add_duplicate_rejected(self):
        net = make_net([10, 30])
        with pytest.raises(ValueError):
            net.add_peer(10)

    def test_remove_peer_reassigns_keys(self):
        net = make_net([10, 20, 30])
        owner_before = net.owner_of(15)  # id 20
        net.remove_peer(owner_before)
        assert net.id_of(net.owner_of(15)) == 30
        assert not net.is_alive(owner_before)

    def test_remove_last_peer_rejected(self):
        net = make_net([10])
        with pytest.raises(ValueError):
            net.remove_peer(0)

    def test_indices_stable_after_removal(self):
        net = make_net([10, 20, 30, 40])
        net.remove_peer(1)
        assert net.id_of(3) == 40  # untouched peers keep ids/indices
        r = net.route(0, 40)
        assert 1 not in r.path

    def test_rejoin_via_add(self):
        net = make_net([10, 20])
        net.remove_peer(0)
        p = net.add_peer(10)
        assert net.id_of(p) == 10
        assert net.n_peers == 2

    def test_revive_restores_index_and_id(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(20, np.random.default_rng(6))
        net = ChordNetwork(space, ids)
        old_id = net.id_of(7)
        net.remove_peers([7])
        net.revive_peers([7])
        assert net.is_alive(7)
        assert net.id_of(7) == old_id
        assert net.n_peers == 20

    def test_revive_requires_dead_peer(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(10, np.random.default_rng(7))
        net = ChordNetwork(space, ids)
        with pytest.raises(ValueError):
            net.revive_peers([3])


class TestFingerTable:
    def test_matches_ring_fingers(self, net200):
        table = net200.finger_table(0)
        assert len(table) == net200.space.bits
        for e in table:
            assert e.node_id == net200.id_of(net200.owner_of(e.start))

    def test_distinct_fingers_logarithmic(self, net200):
        distinct = len({e.node_id for e in net200.finger_table(5)})
        assert distinct <= np.log2(200) + 4
