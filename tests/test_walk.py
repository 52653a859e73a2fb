"""The one scalar ring walk: pinned lossy routes, perfect ≡ fault-free lossy, spies.

``SortedRing.walk`` is the only scalar transcription of the ring rule
(DESIGN.md §5/§6); ``ChordNetwork.route`` and ``route_lossy`` are one
plan walk over it.  The batch kernel's equivalence to it is pinned in
``tests/test_engine.py``; this module pins what no aggregate does — the
exact lossy routes — and the relation between the two contact policies.
"""

import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.ring_array import SortedRing
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.util.ids import IdSpace
from tests.test_engine import build_pair as _build_pair


#: A zero-latency (chord, hieras) pair over synthetic landmark distances, 32-bit ids.
build_pair = partial(_build_pair, bits=32, latency=False)


def lossy_digest(net, *, crash, loss, fallback=16, seed=3, lookups=300):
    """SHA-256 over every seeded ``route_lossy`` outcome in one fault cell."""
    plan = FaultPlan(seed=seed)
    if crash:
        plan = plan.crash_fraction(at_ms=0.0, fraction=crash)
    if loss:
        plan = plan.loss_burst(at_ms=0.0, rate=loss, duration_ms=1e9)
    injector = FaultInjector(
        plan, net.n_peers, policy=RetryPolicy(successor_fallback=fallback)
    )
    injector.advance_to(0.0)
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(lookups):
        src = int(rng.integers(net.n_peers))
        key = int(rng.integers(net.space.size))
        if injector.state.is_dead(src):
            continue
        r = net.route_lossy(src, key, injector=injector)
        digest.update(
            repr(
                (r.path, r.hops_per_layer, r.owner, r.success, r.timeouts,
                 r.retry_latency_ms.hex())
            ).encode()
        )
    return digest.hexdigest()[:16]


#: (crash fraction, loss rate, successor_fallback) of each pinned cell.
FAULT_CELLS = [
    (0.0, 0.0, 16),
    (0.2, 0.0, 16),
    (0.3, 0.05, 16),
    (0.5, 0.10, 16),
    (0.5, 0.10, 2),  # a short §3.3 list: lookups die, budgets run out
    (0.3, 0.0, 0),
]

#: Recorded at the parent commit (PR 22), where ``route_lossy`` still ran
#: ``faults/routing.py::lossy_ring_route``: stack → one digest per cell.
#: The HIERAS rows were re-recorded when failure mode began walking the
#: plan row's §3.2 successor-list shortcut and ending the global loop at
#: the predecessor plus the owner hop, as ``route`` does; Chord's row is
#: the original recording.
PARENT_DIGESTS = {
    "chord": [
        "4c0220ed2fefeec9", "590c776ffb74b160", "cac481421426c94d",
        "85768666050ef3d8", "c6681870095cdbfa", "9073e6a27e311e6f",
    ],
    "hieras-2": [
        "5a2dd6a359a797d7", "f722d3a6be7fd944", "e4865b116a8d8f47",
        "6992f0a4540e2d7c", "d26c704b7c30ea16", "0f00fb338afcaebe",
    ],
    "hieras-3": [
        "667484d693d5163a", "84b005217bff7d26", "b2a5502cda38d106",
        "ae9ad12b4b25ada6", "53a15e87bf18cc7d", "93f02ed78ccd09f2",
    ],
}


def pinned_stacks():
    chord, hieras2 = build_pair(400, depth=2)
    _, hieras3 = build_pair(400, depth=3, landmarks=6)
    return {"chord": chord, "hieras-2": hieras2, "hieras-3": hieras3}


class TestPinnedLossyRoutes:
    """Exact lossy routes — path, outcome, timeouts, retry latency to the
    bit — equal the walk this one replaced, fault-free through half the
    ring crashed under 10 % loss."""

    @pytest.mark.parametrize("label", list(PARENT_DIGESTS))
    def test_digest_recorded_at_the_parent_commit(self, label):
        net = pinned_stacks()[label]
        got = [lossy_digest(net, crash=c, loss=q, fallback=f) for c, q, f in FAULT_CELLS]
        assert got == PARENT_DIGESTS[label]


def fault_free(net):
    return FaultInjector(FaultPlan(), net.n_peers)


def assert_lossy_equals_route(net, requests):
    injector = fault_free(net)
    for src, key in requests:
        plain = net.route(src, key)
        lossy = net.route_lossy(src, key, injector=injector)
        assert lossy.path == plain.path, (src, key)
        assert lossy.hops_per_layer == plain.hops_per_layer, (src, key)
        assert lossy.owner == plain.owner, (src, key)
        assert lossy.success and lossy.timeouts == 0 and lossy.retry_latency_ms == 0.0


SUCCESSOR_LIST_POLICIES = ("off", "transitions", "always")


def every_stack(n, **kw):
    """Flat Chord, and HIERAS at depths 2 and 3 under every ``successor_list_policy``."""
    stacks = [build_pair(n, **kw)[0]]
    for policy in SUCCESSOR_LIST_POLICIES:
        stacks.append(build_pair(n, depth=2, successor_list_policy=policy, **kw)[1])
        stacks.append(build_pair(n, depth=3, landmarks=6, successor_list_policy=policy, **kw)[1])
    return stacks


class TestFaultFreeLossyEqualsRoute:
    """A fault-free handle changes nothing: both contact policies are one
    rule, the §3.2 successor-list shortcut and owner hop included."""

    def test_every_source_and_key_of_a_small_space(self):
        for net in every_stack(40, bits=7):
            requests = [(s, k) for s in range(net.n_peers) for k in range(net.space.size)]
            assert_lossy_equals_route(net, requests)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**16),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=59), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=20,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_32_bit_rings(self, n, seed, picks):
        for net in every_stack(n, seed=seed):
            assert_lossy_equals_route(net, [(s % n, k) for s, k in picks])

    @pytest.mark.parametrize("policy", ["transitions", "always"])
    @pytest.mark.parametrize("depth, landmarks", [(2, 4), (3, 6)])
    def test_accelerated_hieras_equals_route(self, policy, depth, landmarks):
        """At 1 000 peers the shortcut reaches across rings of every size."""
        _, net = build_pair(
            1000, depth=depth, landmarks=landmarks, successor_list_policy=policy
        )
        rng = np.random.default_rng(11)
        requests = [
            (int(rng.integers(net.n_peers)), int(rng.integers(net.space.size)))
            for _ in range(2000)
        ]
        assert_lossy_equals_route(net, requests)


class StubFaults:
    """A hand-set fault handle: who is dead, and every contact attempted."""

    def __init__(self, dead=(), fallback_r=4):
        self.dead = set(dead)
        self.fallback_r = fallback_r
        self.contacts = []

    def is_dead(self, peer):
        return peer in self.dead

    def contact(self, src, dst):
        self.contacts.append((src, dst))
        return dst not in self.dead


@pytest.fixture()
def ring16():
    """Members at every multiple of 16 of an 8-bit space; peer = position."""
    return SortedRing(IdSpace(8), np.arange(0, 256, 16, dtype=np.uint64), np.arange(16))


class TestWalkUnderFaults:
    """The §3.3 candidate order on a ring small enough to read."""

    def test_fallback_order_fingers_then_list_then_owner(self, ring16):
        faults = StubFaults(dead={1, 2, 3, 4, 5}, fallback_r=8)
        path, ok = ring16.walk(0, 100, to_owner=True, faults=faults)
        # From 0: fingers 64, 32, 16 (positions 4, 2, 1), then the list
        # entries not yet tried, nearest first; from 6 the key lies in
        # (96, 112] and the hop goes onto the owner.
        assert faults.contacts == [(0, 4), (0, 2), (0, 1), (0, 3), (0, 5), (0, 6), (6, 7)]
        assert (path, ok) == ([0, 6, 7], True)

    def test_owner_is_the_first_live_successor_while_the_list_reaches_it(self, ring16):
        path, ok = ring16.walk(0, 100, to_owner=True, faults=StubFaults(dead={7}))
        assert (path, ok) == ([0, 4, 6, 8], True)
        path, ok = ring16.walk(0, 100, to_owner=True, faults=StubFaults(dead={7}, fallback_r=1))
        assert (path, ok) == ([0, 4, 6], False)

    def test_lower_loops_stop_at_the_closest_live_predecessor(self, ring16):
        faults = StubFaults(dead={6})
        path, ok = ring16.walk(0, 100, to_owner=False, faults=faults)
        assert (path, ok) == ([0, 4, 5], True)
        assert faults.contacts == [(0, 4), (4, 6), (4, 5)]

    def test_dies_when_every_candidate_timed_out(self, ring16):
        faults = StubFaults(dead=set(range(1, 7)), fallback_r=2)
        path, ok = ring16.walk(0, 100, to_owner=True, faults=faults)
        assert (path, ok) == ([0], False)
        assert [dst for _, dst in faults.contacts] == [4, 2, 1]  # 7 is out of the list's reach

    def test_nobody_left_alive_to_own_the_key(self, ring16):
        path, ok = ring16.walk(0, 100, to_owner=True, faults=StubFaults(dead=set(range(16))))
        assert (path, ok) == ([0], False)


class TestSpies:
    def test_fault_free_lossy_never_enters_the_fallback(self, monkeypatch):
        entered = []
        real = SortedRing._fallback

        def spy(self, *args):
            entered.append(args)
            return real(self, *args)

        monkeypatch.setattr(SortedRing, "_fallback", spy)
        rng = np.random.default_rng(2)
        for net in build_pair(300):
            injector = fault_free(net)
            for _ in range(100):
                net.route_lossy(
                    int(rng.integers(net.n_peers)), int(rng.integers(net.space.size)),
                    injector=injector,
                )
        assert entered == []
        # The spy is wired: a crashed finger sends the walk there.
        chord, _ = build_pair(300)
        injector = FaultInjector(FaultPlan(seed=1).crash_fraction(at_ms=0.0, fraction=0.3), 300)
        injector.advance_to(0.0)
        src = int(np.flatnonzero(~injector.state.dead)[0])
        for key in rng.integers(chord.space.size, size=50).tolist():
            chord.route_lossy(src, key, injector=injector)
        assert entered

    def test_perfect_route_makes_no_contact(self, monkeypatch):
        def no_contact(*args):
            raise AssertionError(f"a perfect walk contacted {args}")

        monkeypatch.setattr(FaultInjector, "contact", no_contact)
        rng = np.random.default_rng(4)
        for net in build_pair(300):
            for _ in range(100):
                result = net.route(int(rng.integers(net.n_peers)), int(rng.integers(net.space.size)))
                assert result.success and result.timeouts == 0


if __name__ == "__main__":  # PYTHONPATH=src:. python tests/test_walk.py prints PARENT_DIGESTS
    for label, net in pinned_stacks().items():
        cells = [lossy_digest(net, crash=c, loss=q, fallback=f) for c, q, f in FAULT_CELLS]
        print(f"    {label!r}: {cells!r},")
