"""Tests for Chord with proximity finger selection."""

import numpy as np
import pytest

from repro.dht.chord import ChordNetwork
from repro.dht.chord_pfs import PfsChordNetwork
from repro.util.ids import IdSpace
from repro.util.intervals import clockwise_distance, in_interval_open


@pytest.fixture(scope="module")
def nets(small_deployment):
    attachment, peer_latency, space, ids = small_deployment
    pfs = PfsChordNetwork(space, ids, latency=peer_latency, seed=1)
    chord = ChordNetwork(space, ids, latency=peer_latency)
    return chord, pfs


class TestConstruction:
    def test_rejects_duplicates(self):
        space = IdSpace(16)
        with pytest.raises(ValueError):
            PfsChordNetwork(space, np.asarray([3, 3], dtype=np.uint64))

    def test_rejects_bad_samples(self):
        space = IdSpace(16)
        ids = space.sample_unique_ids(10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            PfsChordNetwork(space, ids, pns_samples=0)


class TestFingers:
    def test_fingers_in_correct_intervals(self, nets):
        """PFS may pick ANY node in [n+2^(i-1), n+2^i) — but only there."""
        _, pfs = nets
        size = pfs.space.size
        for peer in range(0, 40, 5):
            node_id = pfs.id_of(peer)
            for i in range(1, pfs.space.bits + 1):
                cand = pfs._fingers[peer].get(i)
                if cand is None:
                    continue
                lo = (node_id + (1 << (i - 1))) % size
                hi = (node_id + (1 << i)) % size
                cand_id = pfs.id_of(cand)
                assert cand_id == lo or in_interval_open(cand_id, lo, hi, size) or (
                    clockwise_distance(lo, cand_id, size)
                    < clockwise_distance(lo, hi, size)
                )

    def test_fingers_prefer_low_latency(self, nets, small_deployment):
        """The PFS finger should beat the plain-Chord finger on latency
        on average (that is its entire point)."""
        chord, pfs = nets
        _, peer_latency, _, _ = small_deployment
        gains = []
        for peer in range(30):
            plain_fingers = {e.index: e.peer for e in chord.finger_table(peer)}
            for i, plain_peer in plain_fingers.items():
                pfs_peer = pfs._fingers[peer].get(i)
                if pfs_peer is None or plain_peer == peer:
                    continue
                gains.append(
                    peer_latency.pair(peer, plain_peer)
                    - peer_latency.pair(peer, pfs_peer)
                )
        assert np.mean(gains) > 0


class TestRouting:
    def test_same_owner_as_chord(self, nets, rng):
        chord, pfs = nets
        for _ in range(300):
            s = int(rng.integers(0, pfs.n_peers))
            k = int(rng.integers(0, pfs.space.size))
            r = pfs.route(s, k)
            assert r.owner == chord.owner_of(k)
            assert r.path[-1] == r.owner

    def test_hops_comparable_to_chord(self, nets, rng):
        chord, pfs = nets
        ph = ch = 0
        for _ in range(400):
            s = int(rng.integers(0, pfs.n_peers))
            k = int(rng.integers(0, pfs.space.size))
            ph += pfs.route(s, k).hops
            ch += chord.route(s, k).hops
        # Same geometry: hop counts within ~25% of each other.
        assert abs(ph - ch) / ch < 0.25

    def test_latency_beats_chord(self, nets, rng):
        chord, pfs = nets
        pl = cl = 0.0
        for _ in range(400):
            s = int(rng.integers(0, pfs.n_peers))
            k = int(rng.integers(0, pfs.space.size))
            pl += pfs.route(s, k).latency_ms
            cl += chord.route(s, k).latency_ms
        assert pl < cl

    def test_zero_latency_model_matches_chord_behaviour(self, rng):
        """Without latency information PFS has no signal; routing still
        terminates correctly."""
        space = IdSpace(16)
        ids = space.sample_unique_ids(60, np.random.default_rng(2))
        pfs = PfsChordNetwork(space, ids, seed=3)
        chord = ChordNetwork(space, ids)
        for _ in range(100):
            s = int(rng.integers(0, 60))
            k = int(rng.integers(0, space.size))
            assert pfs.route(s, k).owner == chord.owner_of(k)
