"""Tests for the fault-aware replication layer (``repro.replication``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import SpanRecorder
from repro.replication import (
    ReplicatedStore,
    ReplicationPolicy,
    replica_group,
)
from repro.replication.placement import group_at, groups_at
from repro.topology.latency import CoordinateLatencyModel
from repro.util.ids import IdSpace


def make_chord(n=40, seed=0):
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, np.random.default_rng(seed))
    return ChordNetwork(space, ids)


def group_of(net, name, policy):
    return replica_group(net, int(net.space.hash_key(name)), policy)


def crash_injector(net, peers, *, at_ms=10.0, seed=1):
    plan = FaultPlan(seed=seed)
    plan.crash_peers(at_ms=at_ms, peers=list(peers))
    return FaultInjector(plan, len(net._alive))


class TestPolicy:
    def test_defaults(self):
        policy = ReplicationPolicy()
        assert policy.group_size == 3
        assert policy.effective_write_quorum == 2
        assert policy.effective_read_quorum == 2

    def test_pinned_quorums(self):
        policy = ReplicationPolicy(replicas=4, write_quorum=5, read_quorum=1)
        assert policy.effective_write_quorum == 5
        assert policy.effective_read_quorum == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": -1},
            {"consistency": "paxos"},
            {"placement": "random"},
            {"write_quorum": 0},
            {"write_quorum": 4},  # > group_size for replicas=2
            {"read_quorum": 9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplicationPolicy(**kwargs)


class TestPlacement:
    def test_successor_group_matches_ring(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2)
        group = group_of(net, "file", policy)
        owner = net.owner_of(net.space.hash_key("file"))
        assert group == [owner] + net.successor_list(owner, 2)

    def test_tiny_ring_dedupes(self):
        net = make_chord(n=3)
        policy = ReplicationPolicy(replicas=5, consistency="quorum", write_quorum=1)
        group = group_of(net, "file", policy)
        assert len(group) == len(set(group)) == 3  # whole ring, no wrap dupes

    def test_chord_ring_scoped_equals_successor(self):
        net = make_chord()
        ring_scoped = ReplicationPolicy(replicas=3, placement="ring_scoped")
        successor = ReplicationPolicy(replicas=3, placement="successor")
        for name in ("a", "b", "c"):
            assert group_of(net, name, ring_scoped) == group_of(net, name, successor)

    def test_hieras_ring_scoped_stays_in_low_ring(self, small_networks):
        _, hieras = small_networks
        policy = ReplicationPolicy(replicas=2, placement="ring_scoped")
        key = int(hieras.space.hash_key("file"))
        group = replica_group(hieras, key, policy)
        owner = group[0]
        ring_members = set(
            int(p) for p in hieras.ring_of(owner, hieras.depth).peers
        )
        # The owner's low-layer ring had room: replicas stay inside it.
        if len(ring_members) > policy.replicas:
            assert all(peer in ring_members for peer in group[1:])

    def test_hieras_ring_scoped_pads_small_rings(self, small_networks):
        _, hieras = small_networks
        # Ask for more replicas than any low-layer ring holds: the group
        # must be padded from global successors up to full size.
        policy = ReplicationPolicy(replicas=8, placement="ring_scoped",
                                   consistency="quorum")
        key = int(hieras.space.hash_key("file"))
        group = replica_group(hieras, key, policy)
        assert len(group) == len(set(group))
        assert len(group) == policy.group_size

    def test_global_successors_both_stacks(self, small_networks):
        chord, hieras = small_networks
        # Same membership, same ids: the global successor walk agrees.
        for peer in (0, 7, 123):
            assert chord.successor_list(peer, 3) == hieras.successor_list(peer, 3)

    def test_zero_replicas_owner_only(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=0)
        group = group_of(net, "file", policy)
        assert group == [net.owner_of(net.space.hash_key("file"))]


def scalar_group_at(net, owner, policy):
    """The per-owner placement rule as written before ``groups_at``: one
    ``SortedRing.successor_list`` walk per ring, deduplicated in order."""

    def successors(row, r):
        ring, pos = row.at(owner)
        return [int(ring.peers[p]) for p in ring.successor_list(pos, r)]

    plan = net._layer_plan()
    group = [owner]
    if policy.replicas <= 0:
        return group
    if policy.placement == "ring_scoped":
        candidates = successors(plan[0], policy.replicas)
        if len(candidates) < policy.replicas:
            candidates += successors(plan[-1], policy.replicas + len(candidates))
    else:
        candidates = successors(plan[-1], policy.replicas)
    for peer in candidates:
        if peer not in group:
            group.append(peer)
        if len(group) == policy.group_size:
            break
    return group


def tiny_pair(n, seed, depth):
    """(chord, hieras) on ``n`` peers with planar latencies: rings of one
    to a few members, so successor walks wrap and groups come up short."""
    rng = np.random.default_rng(seed)
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, rng)
    orders = BinningScheme.default_for_depth(depth).orders(rng.uniform(0, 300, size=(n, 3)))
    model = CoordinateLatencyModel(rng.uniform(0, 500, size=(n, 2)))
    return ChordNetwork(space, ids, latency=model), HierasNetwork(
        space, ids, latency=model, landmark_orders=orders, depth=depth
    )


class TestGroupsAt:
    """``groups_at`` is the placement rule, row for row, and ``group_at``
    its one-row case."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 14),
        seed=st.integers(0, 10_000),
        depth=st.sampled_from([2, 3]),
        replicas=st.integers(0, 5),
        placement=st.sampled_from(["successor", "ring_scoped"]),
        gone=st.sets(st.integers(0, 13), max_size=6),
    )
    def test_equals_the_scalar_rule_row_for_row(self, n, seed, depth, replicas, placement, gone):
        policy = ReplicationPolicy(replicas=replicas, placement=placement, consistency="quorum",
                                   write_quorum=1, read_quorum=1)
        for net in tiny_pair(n, seed, depth):
            wave = sorted(p for p in gone if p < n)[: n - 1]
            net.remove_peers(wave)
            owners = np.asarray([p for p in range(n) if net.is_alive(p)], dtype=np.int64)
            rows = groups_at(net, owners, policy)
            assert rows.shape == (len(owners), policy.group_size)
            for owner, row in zip(owners.tolist(), rows.tolist()):
                expected = scalar_group_at(net, owner, policy)
                assert row == expected + [-1] * (policy.group_size - len(expected))
                assert group_at(net, owner, policy) == expected

    @pytest.mark.parametrize("replicas", [0, 2, 8])
    @pytest.mark.parametrize("placement", ["successor", "ring_scoped"])
    def test_both_stacks_on_a_transit_stub_deployment(self, small_networks, placement, replicas):
        policy = ReplicationPolicy(replicas=replicas, placement=placement)
        for net in small_networks:
            owners = np.arange(net.n_peers, dtype=np.int64)
            rows = groups_at(net, owners, policy).tolist()
            assert rows == [scalar_group_at(net, owner, policy) for owner in owners.tolist()]


class TestFaultFree:
    @pytest.mark.parametrize("consistency", ["chain", "quorum"])
    def test_roundtrip(self, consistency):
        net = make_chord()
        store = ReplicatedStore(net, ReplicationPolicy(consistency=consistency))
        put = store.put(0, "song.mp3", {"holders": [3, 9]})
        assert put.success and not put.aborted and put.acks == 3
        got = store.get(5, "song.mp3")
        assert got.success and got.value == {"holders": [3, 9]}
        assert got.version == put.version and not got.stale and not got.lost
        key = int(net.space.hash_key("song.mp3"))
        assert sum(key in disk for disk in store._stored.values()) == 3

    def test_versions_are_monotonic(self):
        net = make_chord()
        store = ReplicatedStore(net, ReplicationPolicy())
        v1 = store.put(0, "f", "a").version
        v2 = store.put(0, "f", "b").version
        assert v2 > v1
        assert store.version_of("f") == v2
        assert store.version_of("never-stored") == -1

    def test_put_charges_route_plus_fanout(self, small_networks):
        net, _ = small_networks  # the fixture has a real latency model
        store = ReplicatedStore(net, ReplicationPolicy(consistency="quorum"))
        put = store.put(0, "f", "v")
        assert put.route is not None
        # owner writes locally (free), two replica messages ride on top.
        assert put.hops == put.route.hops + 2
        assert put.latency_ms > put.route.latency_ms
        assert put.route.timeouts == 0 and all(c.timeouts == 0 for c in put.contacts)

    def test_missing_key_read(self):
        net = make_chord()
        store = ReplicatedStore(net, ReplicationPolicy(consistency="quorum"))
        got = store.get(0, "never-stored")
        assert got.success and got.value is None and not got.lost

    def test_tracing_guarded(self):
        net = make_chord()
        store = ReplicatedStore(net, ReplicationPolicy())
        store.put(0, "f", "v")  # no recorder: nothing raises, nothing recorded
        recorder = store.enable_tracing(SpanRecorder(registry=MetricsRegistry()))
        store.put(0, "f", "v2")
        store.get(1, "f")
        assert recorder.registry.counter("replication.puts").value == 1
        assert recorder.registry.counter("replication.gets").value == 1
        store.disable_tracing()
        store.put(0, "f", "v3")
        assert recorder.registry.counter("replication.puts").value == 1


class TestChainVsQuorum:
    """The pinned divergence scenario: same fault plan, opposite fates."""

    def setup_scenario(self, consistency):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2, consistency=consistency)
        tail = group_of(net, "file", policy)[-1]
        injector = crash_injector(net, [tail])
        store = ReplicatedStore(net, policy, injector=injector)
        source = next(
            p for p in range(net.n_peers)
            if p != tail and p not in group_of(net, "file", policy)
        )
        store.advance_to(20.0)  # the tail is now dead
        return net, store, source, tail

    def test_chain_write_aborts_on_dead_tail(self):
        _, store, source, tail = self.setup_scenario("chain")
        put = store.put(source, "file", "v")
        assert not put.success and put.aborted
        assert put.acks == 2  # owner + first replica committed before the break
        assert store.stats.chain_aborts == 1
        assert len(store._hints.get(tail, [])) == 1

    def test_quorum_write_survives_dead_tail(self):
        _, store, source, tail = self.setup_scenario("quorum")
        put = store.put(source, "file", "v")
        assert put.success and put.acks == 2  # majority of 3
        assert store.stats.chain_aborts == 0
        assert len(store._hints.get(tail, [])) == 1  # the miss is still hinted

    def test_quorum_read_succeeds_where_chain_read_fails(self):
        _, chain_store, source, _ = self.setup_scenario("chain")
        _, quorum_store, q_source, _ = self.setup_scenario("quorum")
        chain_store.put(source, "file", "v")  # aborts, but owner+s1 hold it
        quorum_store.put(q_source, "file", "v")
        chain_read = chain_store.get(source, "file")
        quorum_read = quorum_store.get(q_source, "file")
        assert not chain_read.success  # the tail is unreachable
        assert quorum_read.success and quorum_read.value == "v"


class TestHintedHandoff:
    """Paired scenario: handoff on keeps the key alive, off loses it."""

    def run_scenario(self, hinted_handoff):
        net = make_chord()
        policy = ReplicationPolicy(
            replicas=2, consistency="quorum", hinted_handoff=hinted_handoff
        )
        group = group_of(net, "file", policy)
        owner, s1, s2 = group
        plan = FaultPlan(seed=3)
        plan.crash_peers(at_ms=10.0, peers=[s2])
        plan.crash_peers(at_ms=30.0, peers=[owner, s1])
        plan.revive_peers(at_ms=40.0, peers=[s2])
        store = ReplicatedStore(net, policy, injector=FaultInjector(plan, len(net._alive)))
        source = next(p for p in range(net.n_peers) if p not in group)
        store.advance_to(20.0)  # s2 dead
        put = store.put(source, "file", "v")
        assert put.success and put.acks == 2  # owner + s1; s2 missed
        store.advance_to(50.0)  # owner+s1 die, s2 rejoins (hints replay?)
        return store

    def test_handoff_on_prevents_loss(self):
        store = self.run_scenario(True)
        assert store.stats.hints_queued == 1
        assert store.stats.hints_replayed == 1
        audit = store.loss_audit()
        assert audit["lost"] == 0 and audit["loss_probability"] == 0.0

    def test_handoff_off_loses_the_key(self):
        store = self.run_scenario(False)
        assert store.stats.hints_queued == 0
        audit = store.loss_audit()
        assert audit["lost"] == 1 and audit["loss_probability"] == 1.0

    def test_stale_hint_never_clobbers_newer_write(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2, consistency="quorum")
        group = group_of(net, "file", policy)
        s1 = group[1]
        plan = FaultPlan(seed=4)
        plan.crash_peers(at_ms=10.0, peers=[s1])
        plan.revive_peers(at_ms=30.0, peers=[s1])
        store = ReplicatedStore(net, policy, injector=FaultInjector(plan, len(net._alive)))
        source = next(p for p in range(net.n_peers) if p not in group)
        store.advance_to(20.0)
        put_old = store.put(source, "file", "old")  # hint for s1 at version v
        # s1 somehow already holds a newer version (e.g. a repair raced).
        store._write_local(s1, put_old.key, "newer", put_old.version + 1)
        store.advance_to(40.0)  # replay must not regress s1
        assert store._read_local(s1, put_old.key) == ("newer", put_old.version + 1)


class TestReadRepair:
    def make_stale_replica(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2, consistency="quorum",
                                   hinted_handoff=False)
        group = group_of(net, "file", policy)
        s1 = group[1]
        plan = FaultPlan(seed=5)
        plan.crash_peers(at_ms=10.0, peers=[s1])
        plan.revive_peers(at_ms=30.0, peers=[s1])
        store = ReplicatedStore(net, policy, injector=FaultInjector(plan, len(net._alive)))
        source = next(p for p in range(net.n_peers) if p not in group)
        store.put(source, "file", "v1")
        store.advance_to(20.0)
        store.put(source, "file", "v2")  # s1 misses the update (no hints)
        store.advance_to(40.0)  # s1 back, still at v1
        return net, store, source, s1

    def test_quorum_read_detects_and_repairs(self):
        _, store, source, s1 = self.make_stale_replica()
        key = int(store.network.space.hash_key("file"))
        assert store._read_local(s1, key)[0] == "v1"
        got = store.get(source, "file")
        assert got.success and got.value == "v2"
        assert got.stale and got.repaired >= 1
        assert store.stats.stale_reads == 1
        assert store._read_local(s1, key)[0] == "v2"  # repaired in place
        again = store.get(source, "file")
        assert not again.stale  # one repair was enough

    def test_chain_read_returns_stale_silently(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2, consistency="chain",
                                   hinted_handoff=False)
        group = group_of(net, "file", policy)
        tail = group[-1]
        plan = FaultPlan(seed=6)
        plan.crash_peers(at_ms=10.0, peers=[tail])
        plan.revive_peers(at_ms=30.0, peers=[tail])
        store = ReplicatedStore(net, policy, injector=FaultInjector(plan, len(net._alive)))
        source = next(p for p in range(net.n_peers) if p not in group)
        store.put(source, "file", "v1")
        store.advance_to(20.0)
        store.put(source, "file", "v2")  # aborts at the dead tail
        store.advance_to(40.0)
        got = store.get(source, "file")
        # The tail answers with the version it has — staleness is real
        # but invisible to chain reads (no second opinion to compare).
        assert got.success and got.value == "v1"
        assert not got.stale
        assert got.version < store.version_of("file")


class TestLossAccounting:
    def test_zero_replicas_owner_crash_loses_key(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=0)
        owner = group_of(net, "file", policy)[0]
        injector = crash_injector(net, [owner])
        store = ReplicatedStore(net, policy, injector=injector)
        source = next(p for p in range(net.n_peers) if p != owner)
        store.put(source, "file", "v")
        store.advance_to(20.0)
        audit = store.loss_audit()
        assert audit["lost"] == 1
        got = store.get(source, "file")
        if got.success:  # routing may still reach a (non-holding) owner
            assert got.lost and got.value is None
            assert store.stats.lost_reads == 1

    def test_audit_counts_stale_only_keys(self):
        _, store, _, _ = TestReadRepair().make_stale_replica()
        # Kill every fresh holder; the revived stale replica survives.
        key = int(store.network.space.hash_key("file"))
        fresh = [
            peer for peer in sorted(store._stored)
            if store._read_local(peer, key) == ("v2", store.version_of("file"))
        ]
        for peer in fresh:
            store.injector.state.dead[peer] = True
        audit = store.loss_audit()
        assert audit["stale_only"] == 1 and audit["lost"] == 0

    def test_lost_key_stays_lost_until_put_again(self):
        """A key whose every holder crashed stays lost through rebalance;
        a fresh put brings it back, and it can be lost afresh."""
        net = make_chord()
        policy = ReplicationPolicy(replicas=1)
        store = ReplicatedStore(net, policy)
        store.seed_key("file", "v1")
        dead: list[int] = []
        for value in ("v2", None):
            holders = group_of(net, "file", policy)
            for peer in holders:
                store.drop_peer_state(peer)
            net.remove_peers(holders)
            dead += holders
            source = next(p for p in range(net.n_peers) if p not in dead)
            assert store.rebalance() == 0
            got = store.get(source, "file")
            assert got.success and got.lost and got.value is None
            assert store.loss_audit()["lost"] == 1
            if value is not None:
                store.put(source, "file", value)
                assert store.get(source, "file").value == value
                assert store.loss_audit()["lost"] == 0
        assert store.stats.lost_reads == 2


class TestMembershipWiring:
    @pytest.mark.parametrize("stack", ["chord", "hieras"])
    def test_remove_peers_drops_disks(self, small_networks, stack):
        chord, hieras = small_networks
        net = chord if stack == "chord" else hieras
        store = ReplicatedStore(net, ReplicationPolicy(consistency="quorum"))
        net.attach_store(store)
        try:
            put = store.put(0, "file", "v")
            holder = next(
                p for p in sorted(store._stored) if put.key in store._stored.get(p, {}).keys()
            )
            net.remove_peers([holder])
            try:
                assert store._stored.get(holder, {}).keys() == set()
            finally:
                net.revive_peers([holder])
        finally:
            net.detach_store(store)

    def test_revive_peers_replays_hints(self):
        net = make_chord()
        policy = ReplicationPolicy(replicas=2, consistency="quorum")
        group = group_of(net, "file", policy)
        s1 = group[1]
        injector = crash_injector(net, [s1])
        store = ReplicatedStore(net, policy, injector=injector)
        net.attach_store(store)
        store.advance_to(20.0)
        put = store.put(next(p for p in range(net.n_peers) if p not in group),
                        "file", "v")
        assert len(store._hints.get(s1, [])) == 1
        # The crash is mirrored into membership, then the host rejoins:
        # removal wipes its disk but the hints others hold survive.
        net.remove_peers([s1])
        net.revive_peers([s1])
        assert len(store._hints.get(s1, [])) == 0
        assert store.stats.hints_replayed == 1
        assert store._read_local(s1, put.key) == ("v", put.version)

    def test_detach_store_stops_notifications(self):
        net = make_chord()
        store = ReplicatedStore(net, ReplicationPolicy(consistency="quorum"))
        net.attach_store(store)
        net.detach_store(store)
        put = store.put(0, "file", "v")
        holder = next(p for p in sorted(store._stored) if put.key in store._stored.get(p, {}).keys())
        net.remove_peers([holder])
        assert put.key in store._stored.get(holder, {}).keys()  # no listener, no drop
        net.revive_peers([holder])


class TestDeterminism:
    def run_once(self):
        net = make_chord(seed=9)
        plan = FaultPlan(seed=7)
        plan.crash_fraction(at_ms=50.0, fraction=0.2)
        store = ReplicatedStore(
            net,
            ReplicationPolicy(replicas=2, consistency="quorum"),
            injector=FaultInjector(plan, len(net._alive)),
        )
        def live(peer):
            while store.injector.state.is_dead(peer % net.n_peers):
                peer += 1
            return peer % net.n_peers

        for i in range(30):
            store.put(live(i), f"k{i}", i)
        store.advance_to(60.0)
        for i in range(30):
            store.put(live(i + 3), f"k{i}", i + 100)
            store.get(live(i + 5), f"k{i}")
        return store.stats.as_dict(), store.loss_audit()

    def test_identical_runs_identical_stats(self):
        assert self.run_once() == self.run_once()
