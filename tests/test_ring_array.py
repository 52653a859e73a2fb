"""Tests for SortedRing — the routing primitive under everything."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.ring_array import _ADVANCE_ROUNDS, RingLayer, SortedRing
from repro.util.ids import IdSpace
from repro.util.intervals import clockwise_distance, in_interval


def make_ring(ids, bits=8):
    ids = sorted(set(ids))
    return SortedRing(
        IdSpace(bits=bits),
        np.asarray(ids, dtype=np.uint64),
        np.arange(len(ids), dtype=np.int64),
    )


def to_owner(ring, start, key, **kw):
    """Positions of the perfect walk that ends at the key's owner."""
    path, ok = ring.walk(start, key, to_owner=True, **kw)
    assert ok  # perfect contacts always arrive
    return path


def to_predecessor(ring, start, key, **kw):
    """Positions of the perfect walk that stops at the key's ring predecessor."""
    path, ok = ring.walk(start, key, to_owner=False, **kw)
    assert ok
    return path


def brute_force_owner(ids, key, size):
    """Reference implementation: first member at or clockwise-after key."""
    return min(ids, key=lambda m: clockwise_distance(key, m, size) and (size - clockwise_distance(m, key, size)))


def owner_by_definition(ids, key, size):
    candidates = sorted(ids, key=lambda m: clockwise_distance(key, m, size))
    return candidates[0]


class TestBasics:
    def test_len_and_contains(self):
        ring = make_ring([10, 20, 30])
        assert len(ring) == 3
        assert 20 in ring and 25 not in ring

    def test_pos_of_id(self):
        ring = make_ring([10, 20, 30])
        assert ring.pos_of_id(20) == 1
        with pytest.raises(KeyError):
            ring.pos_of_id(21)

    def test_successor_pos(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor_pos(15) == 1
        assert ring.successor_pos(20) == 1  # exact hit owns itself
        assert ring.successor_pos(31) == 0  # wraps
        assert ring.successor_pos(5) == 0

    def test_requires_sorted_unique(self):
        space = IdSpace(bits=8)
        with pytest.raises(ValueError):
            SortedRing(space, np.asarray([5, 5], dtype=np.uint64), np.asarray([0, 1]))
        with pytest.raises(ValueError):
            SortedRing(space, np.asarray([7, 3], dtype=np.uint64), np.asarray([0, 1]))

    def test_arc_members(self):
        ring = make_ring([10, 20, 30, 40])
        assert ring.arc_members(10, 30).tolist() == [1, 2]
        assert set(ring.arc_members(35, 15).tolist()) == {3, 0}

    def test_successor_list(self):
        ring = make_ring([10, 20, 30, 40])
        assert ring.successor_list(3, 2) == [0, 1]
        assert ring.successor_list(0, 10) == [1, 2, 3]  # capped at n-1


ids_strategy = st.lists(
    st.integers(min_value=0, max_value=255), min_size=1, max_size=24, unique=True
)
key_strategy = st.integers(min_value=0, max_value=255)


class TestGreedyRouting:
    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=150, deadline=None)
    def test_route_reaches_owner(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        path = to_owner(ring, start, key)
        assert path[0] == start
        assert path[-1] == ring.successor_pos(key)

    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=150, deadline=None)
    def test_distance_strictly_decreases(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        path = to_owner(ring, start, key)
        size = 256
        dists = [clockwise_distance(int(ring.ids[p]), key, size) for p in path[:-1]]
        # Before reaching the owner, every hop strictly reduces the
        # clockwise distance to the key (Chord's progress invariant).
        assert all(a > b for a, b in zip(dists, dists[1:])) or len(dists) <= 1

    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=100, deadline=None)
    def test_hop_bound_logarithmic(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        path = to_owner(ring, start, key)
        # Bits of the space plus the final hop bound the route length.
        assert len(path) - 1 <= 8 + 1

    def test_single_member_routes_to_self(self):
        ring = make_ring([42])
        assert to_owner(ring, 0, 200) == [0]

    def test_owner_start_is_zero_hops(self):
        ring = make_ring([10, 20, 30])
        assert to_owner(ring, 1, 15) == [1]

    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=100, deadline=None)
    def test_succ_list_shortcut_preserves_owner(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        plain = to_owner(ring, start, key)
        fast = to_owner(ring, start, key, succ_list_r=4)
        assert fast[-1] == plain[-1]
        assert len(fast) <= len(plain)


class TestPredecessorRouting:
    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=150, deadline=None)
    def test_stops_at_predecessor(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        path = to_predecessor(ring, start, key)
        end_id = int(ring.ids[path[-1]])
        size = 256
        if len(ring) == 1:
            assert path == [start]
        elif start == ring.successor_pos(key):
            # Destination check: the start already owns the key.
            assert path == [start]
        elif end_id == key:
            pass  # landed exactly on the key's node
        else:
            succ = int(ring.ids[(path[-1] + 1) % len(ring)])
            assert in_interval(key, end_id, succ, size)

    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=100, deadline=None)
    def test_predecessor_route_never_overshoots(self, ids, key, start_idx):
        """No visited node (after the start) sits 'past' the key: its
        clockwise distance to the key never exceeds the previous one."""
        ring = make_ring(ids)
        start = start_idx % len(ring)
        path = to_predecessor(ring, start, key)
        size = 256
        dists = [clockwise_distance(int(ring.ids[p]), key, size) for p in path]
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    @given(ids_strategy, key_strategy, st.integers(min_value=0, max_value=23))
    @settings(max_examples=100, deadline=None)
    def test_one_hop_shorter_than_greedy(self, ids, key, start_idx):
        ring = make_ring(ids)
        start = start_idx % len(ring)
        greedy = to_owner(ring, start, key)
        pred = to_predecessor(ring, start, key)
        assert len(pred) <= len(greedy)
        # Completing the predecessor route with the final hop reaches
        # the same owner the greedy route found.
        if int(ring.ids[pred[-1]]) != key % 256:
            nxt = (pred[-1] + 1) % len(ring)
            assert nxt == greedy[-1] or pred[-1] == greedy[-1]


class TestFingerTable:
    def test_finger_entries_are_ring_successors(self):
        ring = make_ring([10, 50, 90, 200])
        table = ring.finger_table(0)
        assert len(table) == 8
        for entry in table:
            assert entry.node_id == int(ring.ids[ring.successor_pos(entry.start)])

    def test_finger_starts_double(self):
        ring = make_ring([10, 50, 90, 200])
        table = ring.finger_table(1)
        starts = [e.start for e in table]
        assert starts == [(50 + 2**i) % 256 for i in range(8)]

    def test_paper_table2_layer1_row(self):
        """Node 121's layer-1 finger for start 122 is node 124 in the
        paper; with the paper's visible ids we reproduce the successor
        choices of Table 2's layer-1 column."""
        visible = [121, 124, 131, 139, 143, 158, 181, 192, 212, 241, 245, 253]
        ring = make_ring(visible)
        table = ring.finger_table(ring.pos_of_id(121))
        by_start = {e.start: e.node_id for e in table}
        assert by_start[122] == 124
        assert by_start[125] == 131
        assert by_start[137] == 139
        assert by_start[153] == 158
        assert by_start[185] == 192
        assert by_start[249] == 253


class TestEdgeGeometry:
    """Wraparound and degenerate-ring corners the batch engine leans on."""

    def test_arc_members_wraps_past_zero(self):
        ring = make_ring([10, 20, 200, 250])
        # (240, 15] crosses the origin: takes 250 then wraps to 10.
        assert ring.arc_members(240, 15).tolist() == [3, 0]
        # (250, 10] is exactly the wrap gap with one member.
        assert ring.arc_members(250, 10).tolist() == [0]

    def test_arc_members_full_circle_and_empty(self):
        ring = make_ring([10, 20, 200, 250])
        # (x, x] clockwise covers the whole ring.
        assert sorted(ring.arc_members(20, 20).tolist()) == [0, 1, 2, 3]
        # An arc strictly between two members holds nobody.
        assert ring.arc_members(21, 199).tolist() == []
        # Half-open: lo excluded, hi included.
        assert ring.arc_members(10, 20).tolist() == [1]

    def test_arc_members_reduces_args_mod_size(self):
        ring = make_ring([10, 20, 200, 250])
        assert ring.arc_members(240 + 256, 15 + 512).tolist() == [3, 0]

    def test_successor_list_caps_at_ring_size(self):
        ring = make_ring([10, 20, 30])
        for r in (2, 3, 7, 1000):
            got = ring.successor_list(0, r)
            assert got == [1, 2][: min(r, 2)]
        assert ring.successor_list(2, 1000) == [0, 1]  # wraps, excludes self

    def test_single_member_ring(self):
        ring = make_ring([42])
        assert ring.successor_pos(0) == 0
        assert ring.successor_pos(42) == 0
        assert ring.successor_list(0, 5) == []
        # Every key routes to the sole member in zero hops beyond start.
        for key in (0, 41, 42, 43, 255):
            assert to_owner(ring, 0, key) == [0]
            assert to_predecessor(ring, 0, key) == [0]
        assert sorted(ring.arc_members(42, 42).tolist()) == [0]

    def test_key_equal_to_member_id(self):
        ring = make_ring([10, 20, 30, 40])
        # Exact hit owns itself: distance 0, no successor handoff.
        assert ring.successor_pos(30) == 2
        assert to_owner(ring, 2, 30) == [2]
        path = to_owner(ring, 0, 30)
        assert path[-1] == 2
        # Predecessor routing stops strictly before the exact owner
        # unless the start already owns the key.
        assert to_predecessor(ring, 2, 30) == [2]

    def test_two_member_ring_routes_both_ways(self):
        ring = make_ring([0, 128])
        assert to_owner(ring, 0, 128) == [0, 1]
        assert to_owner(ring, 1, 128) == [1]
        assert to_owner(ring, 1, 1) == [1]  # successor of 1 is 128
        assert to_owner(ring, 1, 0) == [1, 0]
        assert to_owner(ring, 1, 200) == [1, 0]  # 200 wraps to member 0


def scalar_positions(ring, keys):
    return [ring.successor_pos(int(k)) for k in keys]


class TestSuccessorPositions:
    """The vectorised successor search ≡ ``successor_pos`` per key."""

    def test_every_key_of_a_small_space(self):
        # The paper's Table 2 ring in an 8-bit space: fewer id bits than
        # a hashed ring's bucket bits would want.
        ring = make_ring([10, 40, 121, 125, 171, 200, 243, 255])
        keys = np.arange(256, dtype=np.uint64)  # 0, size - 1, every member id, the wrap
        assert ring.successor_positions(keys).tolist() == scalar_positions(ring, keys)

    def test_wraps_past_the_last_member(self):
        ring = make_ring([10, 20, 30])
        got = ring.successor_positions(np.asarray([0, 10, 11, 30, 31, 255], dtype=np.uint64))
        assert got.tolist() == [0, 0, 1, 2, 0, 0]
        assert got.dtype == np.int64

    def test_empty_batch(self):
        got = make_ring([10, 20]).successor_positions(np.zeros(0, dtype=np.uint64))
        assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize("ids", [[5], [0, 2**64 - 1], [2**63, 2**63 + 1, 2**64 - 2]])
    def test_64_bit_space(self, ids):
        ring = make_ring(ids, bits=64)
        keys = np.asarray(
            [0, 1, 5, 6, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64
        )
        assert ring.successor_positions(keys).tolist() == scalar_positions(ring, keys)

    def test_members_sharing_their_top_bits_finish_by_binary_search(self, monkeypatch):
        # 3000 consecutive ids in a 32-bit space all fall in bucket 0:
        # the advance loop alone would need up to 2999 rounds.
        n = 3000
        ring = make_ring(range(n), bits=32)
        last_round = _ADVANCE_ROUNDS
        keys = np.asarray(
            [0, last_round, last_round + 1, 1500, n - 1, n, 2**32 - 1], dtype=np.uint64
        )
        searched = []
        real = np.searchsorted

        def counting(ids, lanes, *args, **kwargs):
            searched.append(len(lanes))
            return real(ids, lanes, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", counting)
            got = ring.successor_positions(keys)
        assert got.tolist() == [0, last_round, last_round + 1, 1500, n - 1, 0, 0]
        # The first two keys resolve inside the advance rounds and the
        # last one from its (empty, final) bucket; the other four go to
        # one binary search instead of thousands of rounds.
        assert searched == [4]

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(
                    st.integers(min_value=0, max_value=2**bits - 1),
                    min_size=1, max_size=40, unique=True,
                ),
                st.lists(st.integers(min_value=0, max_value=2**bits - 1), max_size=40),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_on_random_id_sets(self, case):
        bits, ids, keys = case
        ring = make_ring(ids, bits=bits)
        # Member ids and their neighbours are where an off-by-one shows.
        keys = keys + ids + [(i + 1) % 2**bits for i in ids]
        got = ring.successor_positions(np.asarray(keys, dtype=np.uint64))
        assert got.tolist() == scalar_positions(ring, keys)

    def test_spliced_ring_answers_from_its_own_index(self):
        rng = np.random.default_rng(11)
        space = IdSpace(bits=32)
        ids = space.sample_unique_ids(600, rng)
        order = np.argsort(ids[:400])
        parent = SortedRing(space, ids[:400][order], order)
        keys = rng.integers(0, space.size, size=2000, dtype=np.uint64)
        parent_before = parent.successor_positions(keys)  # parent index built here

        ring, members = parent, set(range(400))
        for wave in range(4):
            gone = rng.choice(sorted(members), size=30, replace=False)
            new = np.arange(400 + 50 * wave, 450 + 50 * wave)
            positions = [ring.pos_of_id(int(ids[p])) for p in gone]
            ring = ring.splice(positions, ids[new], new)
            members = (members - set(gone.tolist())) | set(new.tolist())
            live = np.asarray(sorted(members))
            order = np.argsort(ids[live])
            rebuilt = SortedRing(space, ids[live][order], live[order])
            got = ring.successor_positions(keys)
            assert np.array_equal(got, rebuilt.successor_positions(keys))
            assert got.tolist() == scalar_positions(ring, keys)
        # The parent snapshot is untouched by its descendants.
        assert np.array_equal(parent.successor_positions(keys), parent_before)
        assert parent_before.tolist() == scalar_positions(parent, keys)

    def test_key_outside_the_space_is_named(self):
        ring = make_ring([10, 20, 30])
        keys = np.asarray([5, 300, 255, 999], dtype=np.uint64)
        with pytest.raises(ValueError, match="key 300 is outside the 8-bit id space"):
            ring.successor_positions(keys)


def every_ring_and_key(rings, keys):
    """``(code, keys)`` searching every key in every ring of a layer."""
    code = np.repeat(np.arange(len(rings), dtype=np.int32), len(keys))
    return code, np.tile(np.asarray(keys, dtype=np.uint64), len(rings))


class TestRingLayer:
    """Many rings in one id array: each key is searched in its own ring's
    slice, and the two slot tables turn the raw slot into owner and
    predecessor exactly as ``successor_pos`` and a wrap would."""

    def check(self, rings, keys):
        view = RingLayer(rings)
        code, tiled = every_ring_and_key(rings, keys)
        raw = view.successor_slots(tiled, code)
        pred, owner = view.pred_of[raw], view.owner_of[raw]
        base = view.base[code]
        want = [ring.successor_pos(int(k)) for ring in rings for k in keys]
        assert (owner - base).tolist() == want
        sizes = view.sizes[code].tolist()
        assert (pred - base).tolist() == [(w - 1) % n for w, n in zip(want, sizes)]
        assert view.peers[owner].tolist() == [
            int(ring.peers[ring.successor_pos(int(k))]) for ring in rings for k in keys
        ]

    def test_every_key_in_every_ring_of_a_small_space(self):
        rings = [
            make_ring([255]),  # one member: owns every key
            make_ring([0, 129]),
            make_ring(range(256)),  # the full space, id 0 and id size - 1 included
            make_ring([10, 40, 121, 125, 171, 200, 243, 255]),
            make_ring(range(3, 67)),
        ]
        self.check(rings, np.arange(256))

    def test_64_bit_ids_equal_to_the_sentinel(self):
        # A member whose id is 2**64 - 1 looks like the slot after it.
        rings = [make_ring(ids, bits=64) for ids in ([2**64 - 1], [0, 2**64 - 1], [5, 2**63])]
        self.check(rings, [0, 1, 5, 6, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1])

    def test_a_one_ring_layer_is_the_ring(self):
        ring = make_ring([10, 20, 30])
        view = ring.layer_view()
        assert view is ring.layer_view()  # built once per snapshot
        assert view.base.tolist() == [0] and view.sizes.tolist() == [3]
        assert view.ids[:3].tolist() == [10, 20, 30] and view.peers[:3].tolist() == [0, 1, 2]
        keys = np.asarray([0, 10, 11, 30, 31, 255], dtype=np.uint64)
        assert view.successor_slots(keys).tolist() == [0, 0, 1, 2, 3, 3]  # raw: 3 is the sentinel
        assert view.owner_of.tolist() == [0, 1, 2, 0]
        assert view.pred_of.tolist() == [2, 0, 1, 2]

    def test_several_rings_need_a_code_per_key(self):
        view = RingLayer([make_ring([10, 20]), make_ring([30])])
        with pytest.raises(ValueError, match="needs each key's ring code"):
            view.successor_slots(np.asarray([5], dtype=np.uint64))
        with pytest.raises(ValueError, match="key 300 is outside the 8-bit id space"):
            view.successor_slots(np.asarray([5, 300], dtype=np.uint64), np.zeros(2, dtype=np.int32))

    def test_clustered_rings_finish_by_one_binary_search_each(self, monkeypatch):
        # Two rings of consecutive ids (every member in one bucket) around
        # a hashed one: only lanes of the clustered rings reach the
        # fallback, grouped into one search per ring.
        rng = np.random.default_rng(5)
        space = IdSpace(bits=32)
        rings = [
            make_ring(range(100, 3100), bits=32),
            make_ring(space.sample_unique_ids(500, rng).tolist(), bits=32),
            make_ring(range(2**31, 2**31 + 2000), bits=32),
        ]
        keys = np.asarray([0, 100, 1600, 3099, 3100, 2**31 + 1000, 2**32 - 1], dtype=np.uint64)
        view = RingLayer(rings)
        code, tiled = every_ring_and_key(rings, keys)
        searched = []
        real = np.searchsorted

        def counting(ids, lanes, *args, **kwargs):
            searched.append((len(ids), len(lanes)))
            return real(ids, lanes, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", counting)
            got = view.successor_slots(tiled, code)
        assert searched == [(3000, 3), (2000, 1)]
        want = [ring.successor_pos(int(k)) for ring in rings for k in keys]
        assert (view.owner_of[got] - view.base[code]).tolist() == want

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=2**bits - 1),
                        min_size=1, max_size=25, unique=True,
                    ),
                    min_size=1, max_size=6,
                ),
                st.lists(st.integers(min_value=0, max_value=2**bits - 1), max_size=25),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_on_random_layers(self, case):
        bits, id_sets, keys = case
        # Member ids of every ring and their neighbours are where an
        # off-by-one — or a search leaking into the next slice — shows.
        members = [i for ids in id_sets for i in ids]
        keys = keys + members + [(i + 1) % 2**bits for i in members]
        self.check([make_ring(ids, bits=bits) for ids in id_sets], keys)
