"""Tests for the replicated KV store over ring DHTs."""

import numpy as np
import pytest

from repro.dht.chord import ChordNetwork
from repro.dht.storage import DHTStore
from repro.util.ids import IdSpace


@pytest.fixture()
def chord_store():
    space = IdSpace(16)
    ids = space.sample_unique_ids(60, np.random.default_rng(0))
    net = ChordNetwork(space, ids)
    return net, DHTStore(net, replicas=2)


class TestPutGet:
    def test_roundtrip(self, chord_store):
        net, store = chord_store
        store.put("song.mp3", {"holders": [3, 9]})
        value, route = store.get(0, "song.mp3")
        assert value == {"holders": [3, 9]}
        assert route.owner == net.owner_of(net.space.hash_key("song.mp3"))

    def test_missing_key(self, chord_store):
        _, store = chord_store
        value, _ = store.get(0, "never-stored")
        assert value is None

    def test_replication_count(self, chord_store):
        _, store = chord_store
        store.put("a", 1)
        assert store.holder_count("a") == 3  # owner + 2 replicas

    def test_value_at_owner_and_successors(self, chord_store):
        net, store = chord_store
        key = store.put("b", 2)
        owner = net.owner_of(key)
        assert key in store.stored_keys(owner)
        for succ in net.successor_list(owner, 2):
            assert key in store.stored_keys(succ)

    def test_stats(self, chord_store):
        _, store = chord_store
        store.put("x", 1)
        store.get(5, "x")
        store.get(6, "x")
        assert store.stats.puts == 1
        assert store.stats.gets == 2
        assert store.stats.replicas_written == 3
        assert len(store) == 1

    def test_zero_replicas(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(20, np.random.default_rng(1))
        store = DHTStore(ChordNetwork(space, ids), replicas=0)
        store.put("solo", 1)
        assert store.holder_count("solo") == 1

    def test_negative_replicas_rejected(self, chord_store):
        net, _ = chord_store
        with pytest.raises(ValueError):
            DHTStore(net, replicas=-1)


class TestChurnRepair:
    def test_owner_crash_value_survives_via_replica(self, chord_store):
        net, store = chord_store
        key = store.put("file", "data")
        owner = net.owner_of(key)
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        value, _ = store.get(0, "file")
        assert value == "data"

    def test_repair_promotes_replica_without_movement(self, chord_store):
        """With replicas, a crashed owner's successor already holds the
        key — repair re-establishes the replica count with zero owner
        rewrites (Chord/CFS's replica-promotion property)."""
        net, store = chord_store
        key = store.put("file", "data")
        owner = net.owner_of(key)
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        moved = store.repair()
        assert moved == 0
        new_owner = net.owner_of(key)
        assert key in store.stored_keys(new_owner)
        assert store.holder_count("file") == 3

    def test_repair_moves_keys_without_replicas(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(40, np.random.default_rng(2))
        net = ChordNetwork(space, ids)
        store = DHTStore(net, replicas=0)
        key = store.put("file", "data")
        owner = net.owner_of(key)
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        moved = store.repair()
        assert moved == 1
        assert store.stats.lost_after_repair == 1  # no replica survived
        assert key in store.stored_keys(net.owner_of(key))

    def test_join_triggers_ownership_transfer(self, chord_store):
        net, store = chord_store
        key = store.put("file", "data")
        if key in net.ring:  # astronomically unlikely at 16 bits / 60 peers
            pytest.skip("key collided with an existing node id")
        # A peer joining exactly at the key becomes its new owner.
        new_peer = net.add_peer(int(key))
        store.repair()
        assert key in store.stored_keys(new_peer)
        value, route = store.get(0, "file")
        assert value == "data" and route.owner == new_peer

    def test_total_loss_detected(self, chord_store):
        net, store = chord_store
        key = store.put("file", "data")
        owner = net.owner_of(key)
        holders = [owner] + net.successor_list(owner, 2)
        for peer in holders:
            store.drop_peer_state(peer)
        store.repair()
        assert store.stats.lost_after_repair == 1
        # The audit catalogue restored it.
        assert store.holder_count("file") == 3

    def test_repair_prunes_stale_copies(self, chord_store):
        net, store = chord_store
        key = store.put("file", "data")
        owner = net.owner_of(key)
        stale = (owner + 1) % net.n_peers
        store._stored.setdefault(stale, {})[key] = "data"  # simulate stale copy
        store.repair()
        replica_set = [net.owner_of(key)] + net.successor_list(net.owner_of(key), 2)
        for peer in range(net.n_peers):
            if peer not in replica_set:
                assert key not in store.stored_keys(peer)


class TestOverHieras:
    def test_store_over_hieras_network(self, small_networks):
        _, hieras = small_networks
        store = DHTStore(hieras, replicas=2)
        store.put("movie.avi", "meta")
        value, route = store.get(3, "movie.avi")
        assert value == "meta"
        assert route.owner == hieras.owner_of(hieras.space.hash_key("movie.avi"))
        assert store.holder_count("movie.avi") == 3


class TestDurabilityModes:
    def test_restore_lost_default_resurrects(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(30, np.random.default_rng(5))
        net = ChordNetwork(space, ids)
        store = DHTStore(net, replicas=0, restore_lost=True)
        key = store.put("f", "v")
        owner = net.owner_of(key)
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        store.repair()
        value, _ = store.get(0, "f")
        assert value == "v"

    def test_realistic_mode_loses_data(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(30, np.random.default_rng(5))
        net = ChordNetwork(space, ids)
        store = DHTStore(net, replicas=0, restore_lost=False)
        key = store.put("f", "v")
        owner = net.owner_of(key)
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        store.repair()
        value, _ = store.get(0, "f")
        assert value is None
        assert store.stats.lost_after_repair == 1
        # Re-publishing resurrects the key.
        store.put("f", "v2")
        value, _ = store.get(0, "f")
        assert value == "v2"


class TestRevive:
    def test_revive_restores_index_and_id(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(20, np.random.default_rng(6))
        net = ChordNetwork(space, ids)
        old_id = net.id_of(7)
        net.remove_peer(7)
        net.revive_peer(7)
        assert net.is_alive(7)
        assert net.id_of(7) == old_id
        assert net.n_peers == 20

    def test_revive_requires_dead_peer(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(10, np.random.default_rng(7))
        net = ChordNetwork(space, ids)
        with pytest.raises(ValueError):
            net.revive_peer(3)

    def test_hieras_revive_restores_ring(self):
        from repro.core.binning import BinningScheme
        from repro.core.hieras import HierasNetwork

        rng = np.random.default_rng(8)
        space = IdSpace(16)
        ids = space.sample_unique_ids(40, rng)
        orders = BinningScheme.default_for_depth(2).orders(
            rng.uniform(0, 300, size=(40, 4))
        )
        net = HierasNetwork(space, ids, landmark_orders=orders, depth=2)
        name = net.ring_name_of(11, 2)
        net.remove_peer(11)
        net.revive_peer(11)
        assert net.ring_name_of(11, 2) == name
        assert 11 in set(int(p) for p in net.rings_at_layer(2)[name].peers)


class TestReplicaFallbackAccounting:
    """The fallback probes in :meth:`DHTStore.get` must be charged."""

    def make_lossy_store(self, small_networks):
        net, _ = small_networks  # chord: has a real latency model
        store = DHTStore(net, replicas=2)
        key = store.put("file", "data")
        owner = net.owner_of(key)
        return net, store, key, owner

    def test_fallback_probes_charge_hops_and_latency(self, small_networks):
        net, store, key, owner = self.make_lossy_store(small_networks)
        succs = net.successor_list(owner, 2)
        store._stored[owner].pop(key)  # the owner lost its copy
        before_hops = store.stats.get_hops
        before_ms = store.stats.get_latency_ms
        value, route = store.get(0, "file")
        assert value == "data"
        # One probe reached the first successor: one extra hop plus the
        # owner->successor link delay, on top of the routed cost.
        assert store.stats.get_hops == before_hops + route.hops + 1
        extra_ms = store.stats.get_latency_ms - before_ms - route.latency_ms
        assert extra_ms == pytest.approx(float(net.latency.pair(owner, succs[0])))

    def test_every_probe_charged_when_all_replicas_lost(self, small_networks):
        net, store, key, owner = self.make_lossy_store(small_networks)
        succs = net.successor_list(owner, 2)
        for peer in [owner] + succs:
            store._stored.get(peer, {}).pop(key, None)
        before_hops = store.stats.get_hops
        value, route = store.get(0, "file")
        assert value is None
        # Both successors were probed (and answered empty): both charged.
        assert store.stats.get_hops == before_hops + route.hops + len(succs)

    def test_miss_without_fallback_charges_route_only(self, small_networks):
        net, _ = small_networks
        store = DHTStore(net, replicas=0)
        store.put("file", "data")
        key = store._space().hash_key("file")
        owner = store.network.owner_of(key)
        store._stored[owner].pop(key)
        before = store.stats.get_hops
        value, route = store.get(0, "file")
        assert value is None
        assert store.stats.get_hops == before + route.hops  # no replicas to probe


class TestTinyRingPlacement:
    def test_replica_peers_dedupes_on_tiny_ring(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(3, np.random.default_rng(10))
        net = ChordNetwork(space, ids)
        store = DHTStore(net, replicas=5)  # wraps the whole ring
        key = store.put("file", "data")
        peers = store._replica_peers(key)
        assert len(peers) == len(set(peers)) == 3
        assert store.stats.replicas_written == 3  # one write per distinct peer
        assert store.holder_count("file") == 3


class TestRealisticDurabilityEdges:
    def make_bare_store(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(30, np.random.default_rng(5))
        net = ChordNetwork(space, ids)
        return net, DHTStore(net, replicas=0, restore_lost=False)

    def crash_owner_of(self, net, store, name):
        owner = net.owner_of(store._space().hash_key(name))
        store.drop_peer_state(owner)
        net.remove_peer(owner)
        store.repair()
        return owner

    def test_lost_republished_lost_again(self):
        """A resurrected key is a *new* fact: it can be lost afresh."""
        net, store = self.make_bare_store()
        store.put("f", "v1")
        self.crash_owner_of(net, store, "f")
        assert store.get(0, "f")[0] is None
        assert store.stats.lost_after_repair == 1
        store.put("f", "v2")  # re-publish clears the tombstone
        assert store.get(0, "f")[0] == "v2"
        self.crash_owner_of(net, store, "f")
        assert store.get(0, "f")[0] is None
        assert store.stats.lost_after_repair == 2  # counted again, not skipped
        # The tombstone keeps later repairs from resurrecting it.
        store.repair()
        assert store.get(0, "f")[0] is None

    def test_repair_layout_deterministic_across_runs(self):
        """Same membership + catalogue => byte-identical post-repair layout."""

        def run(seed):
            space = IdSpace(16)
            ids = space.sample_unique_ids(40, np.random.default_rng(2))
            net = ChordNetwork(space, ids)
            store = DHTStore(net, replicas=2, restore_lost=False)
            for i in range(20):
                store.put(f"k{i}", i)
            for peer in (3, 11, 19):
                store.drop_peer_state(peer)
                net.remove_peer(peer)
            store.repair()
            return {p: sorted(held.items()) for p, held in sorted(store._stored.items())}

        assert run(0) == run(1)  # the seed argument is deliberately unused


class TestHierasSuccessorsPath:
    def test_successors_of_uses_global_ring(self, small_networks):
        """HIERAS's ``successor_list`` is the inherited global-ring one,
        so the store agrees with flat Chord over the same ids."""
        chord, hieras = small_networks
        assert type(hieras).successor_list is type(chord).successor_list
        store = DHTStore(hieras, replicas=3)
        chord_store = DHTStore(chord, replicas=3)
        for peer in (0, 17, 150):
            assert store._successors_of(peer) == chord_store._successors_of(peer)

    def test_hieras_fallback_read_via_global_successors(self, small_networks):
        _, hieras = small_networks
        store = DHTStore(hieras, replicas=2)
        key = store.put("file", "data")
        owner = hieras.owner_of(key)
        store._stored[owner].pop(key)
        before = store.stats.get_hops
        value, route = store.get(0, "file")
        assert value == "data"
        assert store.stats.get_hops > before + route.hops  # probes were charged
