"""Tests for the message-level Chord protocol."""

import numpy as np
import pytest

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, SUCCESSOR_LIST_LEN, ChordProtocolNode
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.util.ids import IdSpace


def build_converged(n=24, seed=0, bits=16, join_gap_ms=200.0, settle_ms=30000.0):
    space = IdSpace(bits)
    rng = np.random.default_rng(seed)
    ids = space.sample_unique_ids(n, rng)
    sim = Simulator()
    net = SimNetwork(sim, ZeroLatency())
    nodes = [ChordProtocolNode(p, int(ids[p]), space, sim, net) for p in range(n)]
    nodes[0].create_ring(GLOBAL_RING)
    t = 0.0
    for p in range(1, n):
        t += join_gap_ms
        sim.schedule_at(t, nodes[p].join_ring, GLOBAL_RING, 0)
    sim.run(until=t + settle_ms, max_events=5_000_000)
    return space, ids, sim, net, nodes


def expected_cycle(ids):
    order = np.argsort(ids)
    return {int(order[i]): int(order[(i + 1) % len(ids)]) for i in range(len(ids))}


@pytest.fixture(scope="module")
def converged():
    return build_converged()


class TestConvergence:
    def test_successors_form_sorted_cycle(self, converged):
        space, ids, sim, net, nodes = converged
        cycle = expected_cycle(ids)
        for p, expect in cycle.items():
            assert nodes[p].rings[GLOBAL_RING].successor[0] == expect

    def test_predecessors_inverse_of_successors(self, converged):
        space, ids, sim, net, nodes = converged
        cycle = expected_cycle(ids)
        inverse = {v: k for k, v in cycle.items()}
        for p in range(len(ids)):
            assert nodes[p].rings[GLOBAL_RING].predecessor[0] == inverse[p]

    def test_successor_lists_are_consecutive(self, converged):
        space, ids, sim, net, nodes = converged
        cycle = expected_cycle(ids)
        for p in range(len(ids)):
            expected = []
            cur = p
            for _ in range(SUCCESSOR_LIST_LEN):
                cur = cycle[cur]
                expected.append(cur)
            got = [e[0] for e in nodes[p].rings[GLOBAL_RING].successor_list]
            assert got == expected[: len(got)]
            assert len(got) >= 1

    def test_fingers_converge_to_true_successors(self, converged):
        space, ids, sim, net, nodes = converged
        sorted_ids = np.sort(ids)

        def owner(k):
            i = np.searchsorted(sorted_ids, k % space.size)
            return int(sorted_ids[i % len(ids)])

        node = nodes[3]
        fingers = node.rings[GLOBAL_RING].fingers
        checked = 0
        for i, f in enumerate(fingers, start=1):
            if f is None:
                continue
            start = space.finger_start(node.node_id, i)
            assert f[1] == owner(start)
            checked += 1
        assert checked >= space.bits // 2


class TestLookups:
    def test_lookup_owner_correct(self, converged):
        space, ids, sim, net, nodes = converged
        rng = np.random.default_rng(1)
        sorted_ids = np.sort(ids)
        results = []
        keys = rng.integers(0, space.size, 200)
        for k in keys:
            nodes[int(rng.integers(0, len(ids)))].lookup(int(k), results.append)
        sim.run(until=sim.now + 60000, max_events=5_000_000)
        assert len(results) == 200
        for out in results:
            i = np.searchsorted(sorted_ids, out.key)
            assert out.owner_id == int(sorted_ids[i % len(ids)])

    def test_lookup_hops_logarithmic(self, converged):
        space, ids, sim, net, nodes = converged
        rng = np.random.default_rng(2)
        results = []
        for _ in range(200):
            nodes[int(rng.integers(0, len(ids)))].lookup(
                int(rng.integers(0, space.size)), results.append
            )
        sim.run(until=sim.now + 60000, max_events=5_000_000)
        mean = np.mean([r.hops for r in results])
        assert mean < 0.5 * np.log2(len(ids)) + 2.5


class TestFailureRecovery:
    def test_successor_failover(self):
        space, ids, sim, net, nodes = build_converged(n=16, seed=3)
        cycle = expected_cycle(ids)
        victim = cycle[0]  # node 0's successor crashes
        nodes[victim].fail()
        net.unregister(victim)
        sim.run(until=sim.now + 30000, max_events=5_000_000)
        live = [p for p in range(16) if p != victim]
        live_ids = {p: int(ids[p]) for p in live}
        order = sorted(live, key=lambda p: live_ids[p])
        expect = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
        for p in live:
            assert nodes[p].rings[GLOBAL_RING].successor[0] == expect[p]

    def test_multiple_failures(self):
        space, ids, sim, net, nodes = build_converged(n=20, seed=4)
        victims = [2, 9, 15]
        for v in victims:
            nodes[v].fail()
            net.unregister(v)
        sim.run(until=sim.now + 60000, max_events=8_000_000)
        live = [p for p in range(20) if p not in victims]
        order = sorted(live, key=lambda p: int(ids[p]))
        expect = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
        for p in live:
            assert nodes[p].rings[GLOBAL_RING].successor[0] == expect[p]

    def test_lookups_survive_churn(self):
        space, ids, sim, net, nodes = build_converged(n=20, seed=6)
        for v in (4, 13):
            nodes[v].fail()
            net.unregister(v)
        sim.run(until=sim.now + 40000, max_events=8_000_000)
        live = [p for p in range(20) if p not in (4, 13)]
        live_sorted_ids = np.sort([int(ids[p]) for p in live])
        rng = np.random.default_rng(7)
        results = []
        for _ in range(100):
            nodes[int(rng.choice(live))].lookup(
                int(rng.integers(0, space.size)), results.append
            )
        sim.run(until=sim.now + 60000, max_events=8_000_000)
        assert len(results) == 100
        for out in results:
            i = np.searchsorted(live_sorted_ids, out.key)
            assert out.owner_id == int(live_sorted_ids[i % len(live)])


class TestSuccessorListShortcut:
    def test_shortcut_finds_predecessor_in_list(self, converged):
        space, ids, sim, net, nodes = converged
        node = nodes[0]
        slist = node.rings[GLOBAL_RING].successor_list
        assert len(slist) >= 2
        # A key just past the first list entry: its predecessor is that
        # entry, which the shortcut must return.
        target = slist[0]
        key = (target[1] + 1) % space.size
        # Only valid if key is within the covered arc and not owned by us.
        got = node._successor_list_shortcut("global", key)
        assert got == target

    def test_shortcut_none_beyond_list(self, converged):
        space, ids, sim, net, nodes = converged
        node = nodes[0]
        last = node.rings[GLOBAL_RING].successor_list[-1]
        key = (last[1] + 5) % space.size
        # Beyond the arc the list covers (for a 24-node ring the list of
        # 4 covers well under the full circle).
        if (key - node.node_id) % space.size > (last[1] - node.node_id) % space.size:
            assert node._successor_list_shortcut("global", key) is None

    def test_shortcut_none_for_own_key(self, converged):
        space, ids, sim, net, nodes = converged
        node = nodes[0]
        assert node._successor_list_shortcut("global", node.node_id) is None


class TestRealisticLatencies:
    def test_convergence_with_network_delays(self):
        """Protocol timers must interact correctly with real message
        delays (all other protocol tests use zero latency)."""
        from repro.topology.latency import CoordinateLatencyModel

        space = IdSpace(16)
        rng = np.random.default_rng(17)
        n = 16
        ids = space.sample_unique_ids(n, rng)
        coords = rng.uniform(0, 120, size=(n, 2))  # delays up to ~170ms
        sim = Simulator()
        net = SimNetwork(sim, CoordinateLatencyModel(coords))
        nodes = [ChordProtocolNode(p, int(ids[p]), space, sim, net) for p in range(n)]
        nodes[0].create_ring(GLOBAL_RING)
        t = 0.0
        for p in range(1, n):
            t += 600.0
            sim.schedule_at(t, nodes[p].join_ring, GLOBAL_RING, 0)
        sim.run(until=t + 90_000, max_events=8_000_000)
        cycle = expected_cycle(ids)
        for p, expect in cycle.items():
            assert nodes[p].rings[GLOBAL_RING].successor[0] == expect
        # Lookups complete and take wall-clock time (delays are real).
        results = []
        t0 = sim.now
        nodes[0].lookup(12345, results.append)
        sim.run(until=sim.now + 30_000, max_events=2_000_000)
        assert results
        assert sim.now > t0  # messages consumed virtual time
        sorted_ids = np.sort(ids)
        i = np.searchsorted(sorted_ids, results[0].key)
        assert results[0].owner_id == int(sorted_ids[i % n])
