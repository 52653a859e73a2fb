"""Tests for the HIERAS network — the paper's core contribution."""

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.util.ids import IdSpace


def build_pair(n=120, depth=2, seed=5, bits=16, landmarks=4, **hieras_kw):
    """A (chord, hieras) pair over a synthetic latency-free deployment."""
    rng = np.random.default_rng(seed)
    space = IdSpace(bits)
    ids = space.sample_unique_ids(n, rng)
    distances = rng.uniform(0, 300, size=(n, landmarks))
    orders = BinningScheme.default_for_depth(max(depth, 2)).orders(distances)
    chord = ChordNetwork(space, ids)
    hieras = HierasNetwork(
        space, ids, landmark_orders=orders, depth=depth, **hieras_kw
    )
    return chord, hieras


class TestConstruction:
    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            build_pair(depth=5)
        rng = np.random.default_rng(0)
        space = IdSpace(16)
        ids = space.sample_unique_ids(10, rng)
        orders = BinningScheme.default_for_depth(2).orders(
            rng.uniform(0, 300, size=(10, 3))
        )
        with pytest.raises(ValueError):
            HierasNetwork(space, ids, landmark_orders=orders, depth=3)

    def test_orders_must_cover_all_peers(self):
        rng = np.random.default_rng(0)
        space = IdSpace(16)
        ids = space.sample_unique_ids(10, rng)
        orders = BinningScheme.default_for_depth(2).orders(
            rng.uniform(0, 300, size=(9, 3))
        )
        with pytest.raises(ValueError):
            HierasNetwork(space, ids, landmark_orders=orders)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            build_pair(successor_list_policy="sometimes")


class TestRingStructure:
    def test_rings_partition_peers_each_layer(self):
        _, hieras = build_pair(n=150, depth=3)
        all_peers = set(range(150))
        for layer in range(2, hieras.depth + 1):
            seen: set[int] = set()
            for ring in hieras.rings_at_layer(layer).values():
                members = set(int(p) for p in ring.peers)
                assert not (seen & members)
                seen |= members
            assert seen == all_peers

    def test_ring_members_share_name(self):
        _, hieras = build_pair(n=100, depth=2)
        for name, ring in hieras.rings_at_layer(2).items():
            for p in ring.peers:
                assert hieras.ring_name_of(int(p), 2) == name

    def test_deeper_rings_nest(self):
        _, hieras = build_pair(n=150, depth=3)
        for p in range(150):
            inner = set(int(x) for x in hieras.ring_of(p, 3).peers)
            outer = set(int(x) for x in hieras.ring_of(p, 2).peers)
            assert inner <= outer
            assert p in inner

    def test_global_ring_is_everyone(self):
        _, hieras = build_pair(n=80)
        assert len(hieras.ring_of(0, 1)) == 80

    def test_ring_sizes_sum(self):
        _, hieras = build_pair(n=150, depth=3)
        for layer in (2, 3):
            assert hieras.ring_sizes(layer).sum() == 150

    def test_directory_published_for_every_ring(self):
        _, hieras = build_pair(n=100)
        assert set(hieras.directory.names()) == set(hieras.rings_at_layer(2))

    def test_ring_table_host_is_live_peer(self):
        _, hieras = build_pair(n=100)
        for name in hieras.directory.names():
            host = hieras.ring_table_host(name)
            assert hieras.is_alive(host)


class TestRouting:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_owner_agrees_with_chord(self, depth):
        chord, hieras = build_pair(n=150, depth=depth, seed=depth)
        rng = np.random.default_rng(depth)
        for _ in range(300):
            s = int(rng.integers(0, 150))
            k = int(rng.integers(0, hieras.space.size))
            rc, rh = chord.route(s, k), hieras.route(s, k)
            assert rh.owner == rc.owner
            assert rh.path[-1] == rh.owner

    @pytest.mark.parametrize("policy", ["off", "transitions", "always"])
    def test_all_policies_reach_owner(self, policy):
        chord, hieras = build_pair(n=120, successor_list_policy=policy)
        rng = np.random.default_rng(9)
        for _ in range(150):
            s = int(rng.integers(0, 120))
            k = int(rng.integers(0, hieras.space.size))
            assert hieras.route(s, k).owner == chord.owner_of(k)

    def test_hops_per_layer_structure(self):
        _, hieras = build_pair(n=150, depth=3)
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = hieras.route(int(rng.integers(0, 150)), int(rng.integers(0, hieras.space.size)))
            assert len(r.hops_per_layer) == 3  # lowest..global
            assert sum(r.hops_per_layer) == r.hops
            assert r.low_layer_hops == sum(r.hops_per_layer[:-1])
            assert r.top_layer_hops == r.hops_per_layer[-1]

    def test_source_owning_key_routes_zero_hops(self):
        _, hieras = build_pair(n=100)
        key = hieras.id_of(13)
        r = hieras.route(13, key)
        assert r.hops == 0
        assert r.owner == 13

    def test_path_is_connected_peers(self):
        _, hieras = build_pair(n=100)
        r = hieras.route(5, 12345)
        assert all(hieras.is_alive(p) for p in r.path)

    def test_lower_hops_stay_in_source_ring(self):
        """Every hop of the lowest loop lands inside the source's ring."""
        _, hieras = build_pair(n=150, depth=2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = int(rng.integers(0, 150))
            r = hieras.route(s, int(rng.integers(0, hieras.space.size)))
            ring_members = set(int(p) for p in hieras.ring_of(s, 2).peers)
            low = r.hops_per_layer[0]
            for p in r.path[: low + 1]:
                assert p in ring_members

    def test_single_ring_degenerates_to_chord_plus_layers(self):
        """If binning puts everyone in one ring, routes match Chord's."""
        rng = np.random.default_rng(0)
        space = IdSpace(16)
        ids = space.sample_unique_ids(80, rng)
        distances = np.full((80, 4), 500.0)  # all level 2 everywhere
        orders = BinningScheme.default_for_depth(2).orders(distances)
        hieras = HierasNetwork(
            space, ids, landmark_orders=orders, depth=2, successor_list_policy="off"
        )
        chord = ChordNetwork(space, ids)
        assert len(hieras.rings_at_layer(2)) == 1
        for _ in range(100):
            s = int(rng.integers(0, 80))
            k = int(rng.integers(0, space.size))
            assert hieras.route(s, k).path == chord.route(s, k).path


class TestMembership:
    def test_add_peer_joins_named_rings(self):
        _, hieras = build_pair(n=60)
        name = hieras.ring_name_of(0, 2)
        new_id = next(
            i for i in range(hieras.space.size) if i not in hieras.global_ring
        )
        p = hieras.add_peer(new_id, [name])
        assert hieras.ring_name_of(p, 2) == name
        assert p in set(int(x) for x in hieras.ring_of(0, 2).peers)

    def test_add_peer_validates_names_length(self):
        _, hieras = build_pair(n=60, depth=3)
        with pytest.raises(ValueError):
            hieras.add_peer(1, ["only-one-name"])

    def test_remove_peer_updates_rings(self):
        _, hieras = build_pair(n=60)
        victim = 7
        name = hieras.ring_name_of(victim, 2)
        before = len(hieras.rings_at_layer(2)[name])
        hieras.remove_peer(victim)
        rings = hieras.rings_at_layer(2)
        if name in rings:
            assert len(rings[name]) == before - 1
        assert not hieras.is_alive(victim)

    def test_remove_last_ring_member_drops_ring_table(self):
        _, hieras = build_pair(n=60)
        sizes = {name: len(r) for name, r in hieras.rings_at_layer(2).items()}
        lonely = [n for n, s in sizes.items() if s == 1]
        if not lonely:
            pytest.skip("no singleton ring in this draw")
        name = lonely[0]
        victim = int(hieras.rings_at_layer(2)[name].peers[0])
        hieras.remove_peer(victim)
        assert name not in hieras.directory.names()

    def test_routing_correct_after_churn(self):
        chord, hieras = build_pair(n=80)
        rng = np.random.default_rng(4)
        for victim in (3, 11, 29):
            hieras.remove_peer(victim)
            chord.remove_peer(victim)
        new_id = next(
            i for i in range(hieras.space.size) if i not in hieras.global_ring
        )
        hieras.add_peer(new_id, [hieras.ring_name_of(0, 2)])
        chord.add_peer(new_id)
        for _ in range(150):
            s = int(rng.integers(0, 80))
            if not hieras.is_alive(s):
                continue
            k = int(rng.integers(0, hieras.space.size))
            assert hieras.route(s, k).owner == chord.owner_of(k)

    def test_hieras_revive_restores_ring(self):
        rng = np.random.default_rng(8)
        space = IdSpace(16)
        ids = space.sample_unique_ids(40, rng)
        orders = BinningScheme.default_for_depth(2).orders(
            rng.uniform(0, 300, size=(40, 4))
        )
        net = HierasNetwork(space, ids, landmark_orders=orders, depth=2)
        name = net.ring_name_of(11, 2)
        net.remove_peers([11])
        net.revive_peers([11])
        assert net.ring_name_of(11, 2) == name
        assert 11 in set(int(p) for p in net.rings_at_layer(2)[name].peers)


class TestInspection:
    def test_table2_rows_shape(self):
        _, hieras = build_pair(n=60, depth=2, bits=8)
        rows = hieras.table2_rows(0)
        assert len(rows) == 8
        for row in rows:
            assert len(row.successors) == 2

    def test_table2_layer2_successors_in_own_ring(self):
        _, hieras = build_pair(n=60, depth=2, bits=8)
        for peer in range(10):
            my_ring = hieras.ring_name_of(peer, 2)
            for row in hieras.table2_rows(peer):
                _, (l2_id, l2_peer, l2_ring) = row.successors
                assert l2_ring == my_ring
                assert hieras.ring_name_of(l2_peer, 2) == my_ring

    def test_finger_table_matches_ring(self):
        _, hieras = build_pair(n=60)
        entries = hieras.finger_table(0, 2)
        ring = hieras.ring_of(0, 2)
        for e in entries:
            assert e.node_id == int(ring.ids[ring.successor_pos(e.start)])

    def test_distinct_finger_count_lower_layers_smaller(self):
        """§3.4: lower-layer finger tables hold fewer distinct nodes."""
        _, hieras = build_pair(n=200, depth=2)
        lower = np.mean([hieras.distinct_finger_count(p, 2) for p in range(25)])
        top = np.mean([hieras.distinct_finger_count(p, 1) for p in range(25)])
        assert lower <= top

    def test_maintenance_summary_keys(self):
        _, hieras = build_pair(n=100, depth=3)
        summary = hieras.maintenance_summary(sample=16)
        assert summary["depth"] == 3.0
        assert summary["n_rings"] >= 3.0
        assert summary["avg_distinct_fingers_layer1"] > 0
        assert "avg_distinct_fingers_layer3" in summary


class TestExplainRoute:
    def test_narration_structure(self):
        _, hieras = build_pair(n=80, seed=3)
        text = hieras.explain_route(0, 12345)
        assert text.startswith("route key=12345 from peer 0")
        assert "owner: peer" in text
        assert "layer 2" in text or "no hops needed" in text

    def test_hop_lines_match_route(self):
        _, hieras = build_pair(n=80, seed=3)
        r = hieras.route(5, 999)
        text = hieras.explain_route(5, 999)
        arrow_lines = [ln for ln in text.splitlines() if "->" in ln]
        assert len(arrow_lines) == r.hops

    def test_full_narration_is_pinned(self):
        """An idle layer, a lower-ring hop and a global hop, character for character."""
        _, hieras = build_pair(n=80, seed=3, depth=3)
        assert hieras.explain_route(7, 40000) == (
            "route key=40000 from peer 7 (id 53744): 2 hops, 0ms\n"
            '  layer 3 (ring "2122/4244"): no hops needed\n'
            '  layer 2 (ring "2122"): peer 7 (id 53744) -> peer 29 (id 39885)  0ms\n'
            "  layer 1 (global ring): peer 29 (id 39885) -> peer 27 (id 40712)  0ms\n"
            "  owner: peer 27 (id 40712)"
        )

    def test_flat_chord_gets_the_same_narration(self):
        chord, _ = build_pair(n=80, seed=3)
        r = chord.route(7, 40000)
        lines = chord.explain_route(7, 40000).splitlines()
        assert lines[0] == f"route key=40000 from peer 7 (id 53744): {r.hops} hops, 0ms"
        assert lines[1:-1] == [
            f"  layer 1 (global ring): peer {a} (id {chord.id_of(a)})"
            f" -> peer {b} (id {chord.id_of(b)})  0ms"
            for a, b in zip(r.path, r.path[1:])
        ]
        assert lines[-1] == "  owner: peer 27 (id 40712)"
