"""Stateful property tests: routing stays correct under arbitrary churn.

Hypothesis drives random sequences of joins, leaves and lookups against
the static stacks, checking after every step that ownership and routing
agree with a simple reference model (a sorted list of live ids).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.util.ids import IdSpace

BITS = 12
SPACE = IdSpace(BITS)
RING_NAMES = ["0", "1", "2"]


class ChordChurnMachine(RuleBasedStateMachine):
    """Random joins/leaves/lookups against ChordNetwork."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(99)
        initial = SPACE.sample_unique_ids(8, rng)
        self.net = ChordNetwork(SPACE, initial)
        self.live = {p: int(initial[p]) for p in range(8)}
        self.used_ids = set(int(i) for i in initial)

    @rule(raw=st.integers(min_value=0, max_value=SPACE.size - 1))
    def join(self, raw):
        if raw in self.used_ids:
            return
        peer = self.net.add_peer(raw)
        self.live[peer] = raw
        self.used_ids.add(raw)

    @precondition(lambda self: len(self.live) > 2)
    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def leave(self, idx):
        peer = sorted(self.live)[idx % len(self.live)]
        self.net.remove_peer(peer)
        self.used_ids.discard(self.live.pop(peer))

    @rule(
        key=st.integers(min_value=0, max_value=SPACE.size - 1),
        src=st.integers(min_value=0, max_value=10_000),
    )
    def lookup(self, key, src):
        source = sorted(self.live)[src % len(self.live)]
        result = self.net.route(source, key)
        assert result.owner == self._reference_owner(key)
        assert all(p in self.live for p in result.path)

    def _reference_owner(self, key):
        ids = sorted((nid, p) for p, nid in self.live.items())
        for nid, p in ids:
            if nid >= key:
                return p
        return ids[0][1]

    @invariant()
    def membership_consistent(self):
        assert self.net.n_peers == len(self.live)


class HierasChurnMachine(RuleBasedStateMachine):
    """Random joins/leaves/lookups against HierasNetwork."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(7)
        initial = SPACE.sample_unique_ids(9, rng)
        distances = rng.uniform(0, 300, size=(9, 3))
        orders = BinningScheme.paper_for_depth(2).orders(distances)
        self.net = HierasNetwork(SPACE, initial, landmark_orders=orders, depth=2)
        self.live = {p: int(initial[p]) for p in range(9)}
        self.used_ids = set(int(i) for i in initial)

    @rule(
        raw=st.integers(min_value=0, max_value=SPACE.size - 1),
        ring=st.sampled_from(RING_NAMES),
    )
    def join(self, raw, ring):
        if raw in self.used_ids:
            return
        peer = self.net.add_peer(raw, [ring])
        self.live[peer] = raw
        self.used_ids.add(raw)

    @precondition(lambda self: len(self.live) > 2)
    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def leave(self, idx):
        peer = sorted(self.live)[idx % len(self.live)]
        self.net.remove_peer(peer)
        self.used_ids.discard(self.live.pop(peer))

    @rule(
        key=st.integers(min_value=0, max_value=SPACE.size - 1),
        src=st.integers(min_value=0, max_value=10_000),
    )
    def lookup(self, key, src):
        source = sorted(self.live)[src % len(self.live)]
        result = self.net.route(source, key)
        ids = sorted((nid, p) for p, nid in self.live.items())
        expected = next((p for nid, p in ids if nid >= key), ids[0][1])
        assert result.owner == expected
        assert sum(result.hops_per_layer) == result.hops

    @invariant()
    def rings_partition_members(self):
        members: set[int] = set()
        for ring in self.net.rings_at_layer(2).values():
            peers = set(int(p) for p in ring.peers)
            assert not (members & peers)
            members |= peers
        assert members == set(self.live)


TestChordChurn = ChordChurnMachine.TestCase
TestChordChurn.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)
TestHierasChurn = HierasChurnMachine.TestCase
TestHierasChurn.settings = settings(max_examples=15, stateful_step_count=25, deadline=None)
