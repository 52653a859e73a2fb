"""Tests for the HIERAS node-operations protocol (§3.3)."""

import numpy as np
import pytest

from repro.core.hieras_protocol import HierasProtocolNode
from repro.core.ring import ring_id
from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.util.ids import IdSpace


def build_system(n=24, rings=2, seed=3, bits=16, join_gap_ms=300.0, settle_ms=60000.0):
    space = IdSpace(bits)
    rng = np.random.default_rng(seed)
    ids = space.sample_unique_ids(n, rng)
    names = [[str(p % rings)] for p in range(n)]
    sim = Simulator()
    net = SimNetwork(sim, ZeroLatency())
    nodes = [HierasProtocolNode(p, int(ids[p]), space, sim, net) for p in range(n)]
    nodes[0].found_system(names[0], landmark_table=[11, 22, 33])
    t = 0.0
    for p in range(1, n):
        t += join_gap_ms
        sim.schedule_at(t, nodes[p].join_system, 0, names[p])
    sim.run(until=t + settle_ms, max_events=10_000_000)
    return space, ids, names, sim, net, nodes


def check_ring_cycle(nodes, ids, members, ring_name):
    order = sorted(members, key=lambda p: int(ids[p]))
    for i, p in enumerate(order):
        expect = order[(i + 1) % len(order)]
        state = nodes[p].rings[ring_name]
        assert state.successor is not None and state.successor[0] == expect


@pytest.fixture(scope="module")
def system():
    return build_system()


class TestJoinProtocol:
    def test_everyone_joined(self, system):
        *_, nodes = system
        assert all(n.joined for n in nodes)

    def test_global_ring_converged(self, system):
        space, ids, names, sim, net, nodes = system
        check_ring_cycle(nodes, ids, list(range(len(ids))), GLOBAL_RING)

    def test_lower_rings_converged(self, system):
        space, ids, names, sim, net, nodes = system
        for ring in ("0", "1"):
            members = [p for p in range(len(ids)) if names[p][0] == ring]
            check_ring_cycle(nodes, ids, members, ring)

    def test_nodes_only_in_their_rings(self, system):
        space, ids, names, sim, net, nodes = system
        for p, node in enumerate(nodes):
            assert set(node.rings) == {GLOBAL_RING, names[p][0]}

    def test_landmark_table_copied(self, system):
        *_, nodes = system
        assert all(n.landmark_table == [11, 22, 33] for n in nodes[1:])

    def test_ring_tables_on_current_owner(self, system):
        """Each ring table lives on the global successor of its ring id
        (the protocol's placement rule) after handoffs settle."""
        space, ids, names, sim, net, nodes = system
        sorted_ids = np.sort(ids)

        def owner_peer(rid):
            i = np.searchsorted(sorted_ids, rid)
            owner_id = int(sorted_ids[i % len(ids)])
            return int(np.flatnonzero(ids == owner_id)[0])

        for ring in ("0", "1"):
            rid = ring_id(space, ring)
            host = owner_peer(rid)
            assert ring in nodes[host].stored_ring_tables

    def test_ring_table_extremes_correct(self, system):
        space, ids, names, sim, net, nodes = system
        for ring in ("0", "1"):
            member_ids = sorted(int(ids[p]) for p in range(len(ids)) if names[p][0] == ring)
            tables = [
                n.stored_ring_tables[ring]
                for n in nodes
                if ring in n.stored_ring_tables
            ]
            # At least one stored copy matches the true extremes.
            expected = {member_ids[-1], member_ids[-2], member_ids[0], member_ids[1]}
            assert any({e[0] for e in t} == expected for t in tables)


class TestHierarchicalLookup:
    def test_owner_correct(self, system):
        space, ids, names, sim, net, nodes = system
        rng = np.random.default_rng(1)
        sorted_ids = np.sort(ids)
        results = []
        for _ in range(150):
            nodes[int(rng.integers(0, len(ids)))].hieras_lookup(
                int(rng.integers(0, space.size)), results.append
            )
        sim.run(until=sim.now + 60000, max_events=10_000_000)
        assert len(results) == 150
        for out in results:
            i = np.searchsorted(sorted_ids, out.key)
            assert out.owner_id == int(sorted_ids[i % len(ids)])

    def test_per_layer_split_sums(self, system):
        space, ids, names, sim, net, nodes = system
        rng = np.random.default_rng(2)
        results = []
        for _ in range(80):
            nodes[int(rng.integers(0, len(ids)))].hieras_lookup(
                int(rng.integers(0, space.size)), results.append
            )
        sim.run(until=sim.now + 60000, max_events=10_000_000)
        for out in results:
            assert sum(out.hops_per_layer) == out.hops
            assert len(out.hops_per_layer) == 2

    def test_lookup_uses_lower_layer(self, system):
        space, ids, names, sim, net, nodes = system
        rng = np.random.default_rng(3)
        results = []
        for _ in range(150):
            nodes[int(rng.integers(0, len(ids)))].hieras_lookup(
                int(rng.integers(0, space.size)), results.append
            )
        sim.run(until=sim.now + 60000, max_events=10_000_000)
        low = sum(sum(o.hops_per_layer[:-1]) for o in results)
        total = sum(o.hops for o in results)
        assert low > 0.3 * total

    def test_early_exit_when_origin_owns(self, system):
        space, ids, names, sim, net, nodes = system
        # A node and a key it owns.
        node = nodes[5]
        key = node.node_id  # it owns its own id
        results = []
        node.hieras_lookup(int(key), results.append)
        sim.run(until=sim.now + 20000, max_events=2_000_000)
        assert results and results[0].owner_peer == 5
        assert results[0].hops == 0


class TestCrossStackEquivalence:
    def test_protocol_matches_static_owner(self):
        """Converged protocol lookups agree with the static stack built
        from the same membership and ring names."""
        from repro.core.binning import BinningScheme, LandmarkOrders
        from repro.core.hieras import HierasNetwork

        space, ids, names, sim, net, nodes = build_system(n=20, rings=3, seed=9)
        pool, codes = np.unique([nm[0] for nm in names], return_inverse=True)
        static = HierasNetwork(
            space,
            ids,
            landmark_orders=LandmarkOrders(
                scheme=BinningScheme.default_for_depth(2),
                distances=np.zeros((20, 1)),
                codes_per_layer=[codes],
                name_pools=[pool.tolist()],
            ),
            depth=2,
        )
        rng = np.random.default_rng(4)
        results = []
        keys = []
        for _ in range(100):
            k = int(rng.integers(0, space.size))
            keys.append(k)
            nodes[int(rng.integers(0, 20))].hieras_lookup(k, results.append)
        sim.run(until=sim.now + 60000, max_events=10_000_000)
        assert len(results) == 100
        for out in results:
            assert out.owner_peer == static.owner_of(out.key)


class TestRingTableHostFailure:
    def test_table_survives_host_crash(self):
        """The ring-table host crashes; members' periodic republish
        re-creates the table at the new owner of the ring id."""
        space, ids, names, sim, net, nodes = build_system(n=20, rings=2, seed=31)
        ring = "0"
        hosts = [p for p in range(20) if ring in nodes[p].stored_ring_tables]
        assert hosts, "someone must host the table after convergence"
        host = hosts[0]
        members = [p for p in range(20) if names[p][0] == ring and p != host]
        nodes[host].fail()
        net.unregister(host)
        sim.run(until=sim.now + 60_000, max_events=20_000_000)
        live_hosts = [
            p
            for p in range(20)
            if p != host and nodes[p].alive and ring in nodes[p].stored_ring_tables
        ]
        assert live_hosts, "republish must re-home the ring table"
        # And joins keep working through the re-homed table: a failed
        # member rejoins and re-enters its ring.
        rejoiner = members[0]
        nodes[rejoiner].fail()
        net.unregister(rejoiner)
        sim.run(until=sim.now + 30_000, max_events=20_000_000)
        net.register(nodes[rejoiner])
        nodes[rejoiner].recover()
        nodes[rejoiner].join_system(members[1], names[rejoiner])
        sim.run(until=sim.now + 60_000, max_events=20_000_000)
        assert nodes[rejoiner].joined
        assert ring in nodes[rejoiner].rings
