"""Incremental membership ≡ full rebuild, bit for bit, on both stacks.

The scale work replaced rebuild-per-wave with ``SortedRing.splice``
waves that touch only affected rings.  The contract pinned here:

* after any interleaving of remove/revive/add waves, every ring array
  (ids **and** peers), every ring name list, every finger table, and
  every route (owner, path, exact float latency) is identical to a
  network that did a from-scratch rebuild after each wave;
* waves never increment ``rebuild_count`` — the counters prove the
  splice path ran (O(wave) work, not O(N));
* rings a wave does not touch remain the *same objects* (identity, the
  strongest no-work evidence there is);
* rejected batches leave the counters and the overlay untouched.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.engine import batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.topology.latency import CoordinateLatencyModel
from repro.util.ids import IdSpace


def build_pair(n=120, depth=2, seed=5, bits=16, landmarks=4, headroom=0):
    """A (chord, hieras) pair over a synthetic planar deployment.

    ``headroom`` adds latency coordinates beyond the initial ``n`` so
    join waves can route (peer indices grow past the founding set).
    """
    rng = np.random.default_rng(seed)
    space = IdSpace(bits)
    ids = space.sample_unique_ids(n, rng)
    distances = rng.uniform(0, 300, size=(n, landmarks))
    orders = BinningScheme.default_for_depth(max(depth, 2)).orders(distances)
    model = CoordinateLatencyModel(rng.uniform(0, 500, size=(n + headroom, 2)))
    chord = ChordNetwork(space, ids, latency=model)
    hieras = HierasNetwork(
        space, ids, latency=model, landmark_orders=orders, depth=depth
    )
    return chord, hieras


def assert_same_state(a, b):
    """Every ring array and name of ``a`` equals ``b``'s, exactly."""
    assert np.array_equal(a.ring.ids, b.ring.ids)
    assert np.array_equal(a.ring.peers, b.ring.peers)
    if not isinstance(a, HierasNetwork):
        return
    assert a.global_ring is a.ring
    for layer in range(2, a.depth + 1):
        ra, rb = a.rings_at_layer(layer), b.rings_at_layer(layer)
        assert sorted(ra) == sorted(rb)
        for name in ra:
            assert np.array_equal(ra[name].ids, rb[name].ids), name
            assert np.array_equal(ra[name].peers, rb[name].peers), name


def assert_same_routes(a, b, *, seed, n_requests=40):
    """Identical owners, paths and exact float latencies on both nets."""
    rng = np.random.default_rng(seed)
    alive = [p for p in range(a.n_peers) if a.is_alive(p)]
    sources = np.asarray(rng.choice(alive, size=n_requests), dtype=np.int64)
    keys = rng.integers(0, a.space.size, size=n_requests, dtype=np.uint64)
    for src, key in zip(sources[:8], keys[:8]):
        ra, rb = a.route(int(src), int(key)), b.route(int(src), int(key))
        assert ra.owner == rb.owner
        assert ra.path == rb.path
        assert ra.latency_ms == rb.latency_ms  # exact, not approx
    batch_a = batch_route(a, sources, keys, paths=True)
    batch_b = batch_route(b, sources, keys, paths=True)
    assert np.array_equal(batch_a.owner, batch_b.owner)
    assert np.array_equal(batch_a.hops, batch_b.hops)
    assert np.array_equal(batch_a.latency_ms, batch_b.latency_ms)
    for lane in range(n_requests):
        assert batch_a.path(lane) == batch_b.path(lane)


def assert_same_fingers(a, b, *, seed, sample=6):
    rng = np.random.default_rng(seed)
    alive = [p for p in range(a.n_peers) if a.is_alive(p)]
    depth = getattr(a, "depth", 1)
    for peer in rng.choice(alive, size=min(sample, len(alive)), replace=False):
        for layer in range(1, depth + 1):
            ta = [(e.start, e.node_id) for e in a.finger_table(int(peer), layer)]
            tb = [(e.start, e.node_id) for e in b.finger_table(int(peer), layer)]
            assert ta == tb


class TestRandomizedInterleavings:
    """Incremental net vs a twin that rebuilds after every wave."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_waves_match_rebuild_twin(self, seed, depth):
        chord_a, hieras_a = build_pair(n=90, depth=depth, seed=40 + seed)
        chord_b, hieras_b = build_pair(n=90, depth=depth, seed=40 + seed)
        rng = np.random.default_rng(1000 + seed)
        rebuilds_at_start = (chord_a.rebuild_count, hieras_a.rebuild_count)
        dead: set[int] = set()
        for wave in range(6):
            op = ["remove", "revive", "remove"][wave % 3]
            if op == "revive" and not dead:
                op = "remove"
            if op == "remove":
                alive = [p for p in range(90) if p not in dead]
                size = int(rng.integers(1, 8))
                victims = [int(v) for v in rng.choice(alive, size=size, replace=False)]
                dead.update(victims)
                chord_a.remove_peers(victims)
                hieras_a.remove_peers(victims)
                chord_b.remove_peers(victims)
                hieras_b.remove_peers(victims)
            else:
                size = int(rng.integers(1, len(dead) + 1))
                back = [int(v) for v in rng.choice(sorted(dead), size=size, replace=False)]
                dead.difference_update(back)
                chord_a.revive_peers(back)
                hieras_a.revive_peers(back)
                chord_b.revive_peers(back)
                hieras_b.revive_peers(back)
            # The twin re-derives everything from scratch; A never does.
            chord_b.rebuild()
            hieras_b.rebuild()
            assert_same_state(chord_a, chord_b)
            assert_same_state(hieras_a, hieras_b)
            assert_same_fingers(chord_a, chord_b, seed=seed * 100 + wave)
            assert_same_fingers(hieras_a, hieras_b, seed=seed * 100 + wave)
            assert_same_routes(chord_a, chord_b, seed=seed * 100 + wave)
            assert_same_routes(hieras_a, hieras_b, seed=seed * 100 + wave)
        assert chord_a.rebuild_count == rebuilds_at_start[0]
        assert hieras_a.rebuild_count == rebuilds_at_start[1]
        assert chord_a.incremental_waves == 6
        assert hieras_a.incremental_waves == 6

    def test_join_waves_match_rebuild_twin(self):
        _, a = build_pair(n=50, depth=2, seed=71, headroom=24)
        _, b = build_pair(n=50, depth=2, seed=71, headroom=24)
        rng = np.random.default_rng(7)
        pool = [
            int(v)
            for v in a.space.sample_unique_ids(400, rng)
            if int(v) not in a.global_ring
        ]
        layer2 = sorted(a.rings_at_layer(2))
        rebuilds_at_start = a.rebuild_count
        for wave in range(4):
            size = int(rng.integers(1, 6))
            fresh, pool = pool[:size], pool[size:]
            names = [[str(rng.choice(layer2))] for _ in fresh]
            assert a.add_peers(fresh, names) == b.add_peers(fresh, names)
            b.rebuild()
            assert_same_state(a, b)
            assert_same_routes(a, b, seed=500 + wave)
        assert a.rebuild_count == rebuilds_at_start

    def test_join_into_new_ring_matches_rebuild(self):
        """A joiner naming a ring that does not exist yet births it."""
        _, a = build_pair(n=40, depth=2, seed=72, headroom=4)
        _, b = build_pair(n=40, depth=2, seed=72, headroom=4)
        fresh = [
            int(v)
            for v in a.space.sample_unique_ids(200, np.random.default_rng(9))
            if int(v) not in a.global_ring
        ][:2]
        assert "3333" not in a.rings_at_layer(2)
        a.add_peers(fresh, [["3333"], ["3333"]])
        b.add_peers(fresh, [["3333"], ["3333"]])
        b.rebuild()
        assert "3333" in a.rings_at_layer(2)
        assert_same_state(a, b)
        assert_same_routes(a, b, seed=77)


class TestWaveWorkIsBounded:
    def test_untouched_rings_are_same_objects(self):
        """The O(wave) pin: a wave leaves unaffected rings untouched —
        not rebuilt-equal, but the *identical* SortedRing objects — also
        when it retires a whole ring or founds one whose name sorts first."""
        _, net = build_pair(n=150, depth=2, seed=80)
        rings = net.rings_at_layer(2)
        victim_name = net.ring_name_of(0, 2)
        before = {name: rings[name] for name in rings}
        net.remove_peers([0])
        after = net.rings_at_layer(2)
        assert after[victim_name] is not before[victim_name]
        for name in before:
            if name != victim_name and name in after:
                assert after[name] is before[name]

        def wave(apply, touched):
            before, spliced = dict(net.rings_at_layer(2)), net.rings_spliced
            apply()
            after = net.rings_at_layer(2)
            for name, ring in before.items():
                if name != touched:
                    assert after[name] is ring, name
            assert net.rings_spliced == spliced + 1

        smallest = min(after, key=lambda name: len(after[name]))
        doomed = after[smallest].peers.tolist()
        wave(lambda: net.remove_peers(doomed), smallest)  # the whole ring retires
        assert smallest not in net.rings_at_layer(2)
        net.rebind_peers(doomed, [["!"]] * len(doomed))
        wave(lambda: net.revive_peers(doomed), "!")  # founds a ring that sorts first
        assert next(iter(net.rings_at_layer(2))) == "!"

    def test_wave_counters(self):
        _, net = build_pair(n=100, depth=2, seed=81)
        waves = net.incremental_waves
        spliced = net.rings_spliced
        victims = [4, 9]
        touched = {net.ring_name_of(v, 2) for v in victims}
        net.remove_peers(victims)
        assert net.incremental_waves == waves + 1
        assert net.rings_spliced == spliced + len(touched)

    def test_inherited_membership_path_keeps_identity_and_counters(self):
        """HIERAS's remove/revive are ``ChordNetwork``'s: the wave still
        splices only the touched lower rings and moves all four counters
        exactly as a HIERAS-owned wave did."""
        assert HierasNetwork.remove_peers is ChordNetwork.remove_peers
        assert HierasNetwork.revive_peers is ChordNetwork.revive_peers
        _, net = build_pair(n=150, depth=3, seed=83)
        victims = [0, 7]
        for op in (net.remove_peers, net.revive_peers):
            before = {
                layer: dict(net.rings_at_layer(layer)) for layer in range(2, net.depth + 1)
            }
            touched = {
                layer: {net.ring_name_of(v, layer) for v in victims} for layer in before
            }
            counters = (
                net.rebuild_count, net.incremental_waves, net.rings_spliced, net.publish_skips
            )
            op(victims)
            for layer, rings in before.items():
                after = net.rings_at_layer(layer)
                for name, ring in rings.items():
                    assert (after[name] is ring) == (name not in touched[layer]), name
            assert (
                net.rebuild_count, net.incremental_waves, net.rings_spliced, net.publish_skips
            ) == (
                counters[0],
                counters[1] + 1,
                counters[2] + sum(len(names) for names in touched.values()),
                counters[3],
            )

    def test_rebuild_escape_hatch_counts(self):
        chord, hieras = build_pair(n=30, seed=82)
        for net in (chord, hieras):
            before = net.rebuild_count
            net.rebuild()
            assert net.rebuild_count == before + 1


class TestValidationParity:
    def test_rejected_wave_leaves_counters_and_state(self):
        chord, hieras = build_pair(n=30, seed=90)
        for net in (chord, hieras):
            waves = net.incremental_waves
            ids_before = net.ring.ids
            with pytest.raises(ValueError, match="not alive"):
                net.remove_peers([2, 2])
            assert net.incremental_waves == waves
            assert net.ring.ids is ids_before

    @pytest.mark.parametrize(
        "reviving, wave, message",
        [
            (False, [3, -1], "peer -1 out of range [0, 30)"),
            (True, [-1], "peer -1 out of range [0, 30)"),
            (False, [30], "peer 30 out of range [0, 30)"),
            (True, [5, 31], "peer 31 out of range [0, 30)"),
            (False, [4, 4], "peer 4 is not alive"),
            (True, [5, 5], "peer 5 is already alive"),
            (False, [1, 5, 2], "peer 5 is not alive"),
            (True, [5, 6, 7], "peer 6 is already alive"),
            # Peer 5 is gone already: 29 live, so the 29th removal is the last peer ...
            (False, [p for p in range(30) if p != 5], "cannot remove the last peer"),
            # ... unless that peer fails the liveness check first ...
            (False, [*range(6, 30), 0, 1, 2, 3, 0], "peer 0 is not alive"),
            # ... while a bad peer after it is never reached.
            (False, [p for p in range(30) if p != 5] + [99], "cannot remove the last peer"),
        ],
    )
    def test_a_bad_wave_raises_and_changes_nothing(self, reviving, wave, message):
        chord, hieras = build_pair(n=30, seed=92)
        for net in (chord, hieras):
            net.remove_peers([5])
            alive, waves = net._alive.copy(), net.incremental_waves
            before = (net.ring.ids.copy(), net.ring.peers.copy())
            with pytest.raises(ValueError) as caught:
                (net.revive_peers if reviving else net.remove_peers)(wave)
            assert str(caught.value) == message
            assert net.incremental_waves == waves
            assert np.array_equal(net._alive, alive)
            assert np.array_equal(net.ring.ids, before[0]) and np.array_equal(net.ring.peers, before[1])
            twin = build_pair(n=30, seed=92)[net is hieras]
            twin.remove_peers([5])
            assert_same_state(net, twin)

    @settings(max_examples=200, deadline=None)
    @given(
        reviving=st.booleans(),
        gone=st.sets(st.integers(0, 9), max_size=9),
        wave=st.lists(st.integers(-3, 12), max_size=12),
    )
    def test_the_vectorised_check_is_the_per_peer_sequence(self, reviving, gone, wave):
        net = ChordNetwork(IdSpace(16), np.arange(10, dtype=np.uint64) * 97)
        net.remove_peers(sorted(gone))
        alive, live, expected = net._alive.copy(), net.n_peers, None
        for peer in wave:
            if not 0 <= peer < 10:
                expected = f"peer {peer} out of range [0, 10)"
            elif alive[peer] == reviving:
                expected = f"peer {peer} is {'already' if reviving else 'not'} alive"
            elif not reviving and live <= 1:
                expected = "cannot remove the last peer"
            if expected is not None:
                break
            alive[peer] = reviving
            live += 1 if reviving else -1
        try:
            (net.revive_peers if reviving else net.remove_peers)(wave)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None and np.array_equal(net._alive, alive)

    def test_publish_skips_on_unchanged_rings(self):
        _, net = build_pair(n=120, depth=2, seed=91)
        skips = net.publish_skips
        net.rebuild()  # nothing changed: every ring's publish is a skip
        assert net.publish_skips > skips
        assert net.publish_skips - skips == sum(
            len(net.rings_at_layer(layer)) for layer in range(2, net.depth + 1)
        )


def ring_set_wave_digest(depth, *, lookups=200):
    """SHA-256 over scalar and batch routes across waves that change the ring set.

    On ``build_bundle(SimConfig(n_peers=300, seed=7, depth=depth))``:
    the smallest lowest-layer ring retires, five peers of the largest
    found a ring whose names sort first (``"!"``), that ring retires, and
    one wave revives both.  Each step digests ``route`` (owner, path,
    ``hops_per_layer``, latency hex) for 50 seeded lookups and
    ``batch_route`` for ``lookups``.
    """
    net = build_bundle(SimConfig(n_peers=300, seed=7, depth=depth), cache=False).hieras
    rng = np.random.default_rng(13)
    digest = hashlib.sha256()

    def record():
        sources = rng.choice(np.flatnonzero(net._alive), size=lookups)
        keys = rng.integers(0, net.space.size, size=lookups, dtype=np.uint64)
        for src, key in zip(sources[:50].tolist(), keys[:50].tolist()):
            r = net.route(src, key)
            digest.update(repr((r.owner, r.path, r.hops_per_layer, r.latency_ms.hex())).encode())
        batch = batch_route(net, sources, keys, paths=True)
        for lane in range(lookups):
            digest.update(repr((
                int(batch.owner[lane]), batch.path(lane),
                batch.hops_per_layer[lane].tolist(), float(batch.latency_ms[lane]).hex(),
            )).encode())

    record()
    lowest = dict(net.rings_at_layer(depth))
    small = min(lowest, key=lambda name: (len(lowest[name]), name))
    large = max(lowest, key=lambda name: (len(lowest[name]), name))
    doomed = lowest[small].peers.tolist()
    movers = sorted(lowest[large].peers[:5].tolist())
    net.remove_peers(doomed)
    record()
    net.remove_peers(movers)
    net.rebind_peers(movers, [["!", "!/!", "!/!/!"][: depth - 1]] * len(movers))
    net.revive_peers(movers)
    assert next(iter(net.rings_at_layer(depth))).startswith("!")
    record()
    net.remove_peers(movers)
    record()
    net.revive_peers(doomed + movers)
    record()
    return digest.hexdigest()[:16]


#: Recorded at the parent commit, where each lower layer still kept a
#: name-ordered ring index beside the interned code and renumbered it
#: whenever a ring was born or retired.
RING_SET_WAVE_DIGESTS = {2: "731159ab4e5bd349", 3: "ff7bb93acd445b7a"}


@pytest.mark.parametrize("depth", [2, 3])
def test_ring_set_waves_route_as_at_the_parent_commit(depth):
    assert ring_set_wave_digest(depth) == RING_SET_WAVE_DIGESTS[depth]


if __name__ == "__main__":
    for depth in (2, 3):
        print(f'    {depth}: "{ring_set_wave_digest(depth)}",')
