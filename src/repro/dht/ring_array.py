"""Array-backed Chord ring: the shared greedy-routing primitive.

A :class:`SortedRing` is an immutable snapshot of a set of peers placed
on a circular identifier space, stored as a sorted id array.  It
implements exactly Chord's routing rule — *final hop to the successor
when the key falls in ``(current, successor]``, otherwise forward to the
closest preceding finger* — but parameterised by the member set, which
is what HIERAS needs: every P2P ring at every layer routes with the same
rule over its own membership (§3.2: "the same underlying DHT routing
algorithm keeps being used in different layer rings with the
corresponding finger table").

Finger semantics: node ``n``'s ``i``-th finger is the ring's successor
of ``n + 2**(i-1)`` *restricted to ring members*, exactly how the paper
builds lower-layer finger tables (§3.1, Table 2).  Rather than
materialising every table, the ring answers finger queries with a
successor search on the sorted id array — bit-for-bit the same next-hop
choice, two orders of magnitude less memory, which is what makes
paper-scale sweeps tractable.  (:meth:`SortedRing.finger_table`
materialises a table on demand for inspection and for the Table 2
reproduction.)

Two successor searches answer the same question.  The scalar
:meth:`SortedRing.walk` (the reference the batch engine is proven
against) bisects the id list one key at a time.  The batch engine
searches a :class:`RingLayer`: all rings of one hierarchy layer in
**one** sorted id array, each ring
followed by a ``2**64 - 1`` sentinel slot, with one bucket index over
the lot.  Ring ``r`` buckets its ids by their top ``ceil(log2 n_r) + 1``
bits and ``first[offset_r + b]`` is the slot of its first id in a
bucket ``>= b`` (the ring's sentinel when there is none), so a lookup
is one gather plus a short "advance while ``ids[slot] < key``" loop the
sentinel ends — at most half a member per bucket on average, so hashed
ids resolve in under one extra round, and a lane never leaves its own
ring's slice.  Slot-indexed ``owner_of``/``pred_of`` tables close each
slice into a circle, so the raw slot needs no wrap test.  A single ring
is the one-ring layer: :meth:`SortedRing.successor_positions` searches
the ring's own :meth:`~SortedRing.layer_view`.  Snapshots are immutable,
so a view needs no maintenance: it is built on first batch use and
dropped with the rings it was built from.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.ids import IdSpace
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import LookupFaults

__all__ = ["SortedRing", "RingLayer", "FingerEntry"]

#: Advance rounds ``RingLayer.successor_slots`` runs before the lanes still
#: behind their key finish by binary search.  Hashed ids leave ~1 lane
#: in 10 000 for it; clustered or hand-picked ids (every member in one
#: bucket) would otherwise turn the loop into O(n) Python rounds.
_ADVANCE_ROUNDS = 4

#: What follows each ring's ids in a :class:`RingLayer`; no key exceeds it.
_SENTINEL = np.uint64(2**64 - 1)


@dataclass(frozen=True)
class FingerEntry:
    """One row of a materialised finger table (paper Table 2)."""

    index: int  # 1-based finger index
    start: int  # n + 2**(index-1) mod 2**bits
    interval: tuple[int, int]  # [start, next_start)
    node_id: int  # ring successor of `start`
    peer: int  # peer index of that successor


class SortedRing:
    """Immutable sorted-id view of a ring's membership with Chord routing.

    Parameters
    ----------
    space:
        The identifier space shared by all rings of a network.
    ids:
        Sorted, unique member ids (``uint64``-compatible).
    peers:
        Peer indices aligned with ``ids`` (peer ``peers[i]`` owns id
        ``ids[i]``).
    """

    __slots__ = ("space", "ids", "peers", "_idlist_cache", "_layer_view", "_size", "_n")

    def __init__(self, space: IdSpace, ids: np.ndarray, peers: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        peers = np.asarray(peers, dtype=np.int64)
        require(len(ids) == len(peers), "ids and peers must align")
        require(len(ids) >= 1, "a ring needs at least one member")
        if len(ids) > 1:
            require(bool(np.all(ids[1:] > ids[:-1])), "ids must be sorted and unique")
        require(int(ids[-1]) < space.size, "id out of space")
        self.space = space
        self.ids = ids
        self.peers = peers
        self._idlist_cache: list[int] | None = None
        self._layer_view: RingLayer | None = None
        self._size = space.size
        self._n = len(ids)

    @property
    def _idlist(self) -> list[int]:
        """Python-int id list for the scalar bisect paths (lazy).

        Million-member rings never materialise this unless a scalar
        :meth:`walk` actually runs on them; the
        vectorized kernels and all membership queries work straight off
        the ``uint64`` :attr:`ids` array.
        """
        cached = self._idlist_cache
        if cached is None:
            cached = self.ids.tolist()
            self._idlist_cache = cached
        return cached

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, node_id: int) -> bool:
        key = int(node_id)
        if key < 0 or key >= self._size:
            return False
        i = int(np.searchsorted(self.ids, np.uint64(key)))
        return i < self._n and int(self.ids[i]) == key

    def pos_of_id(self, node_id: int) -> int:
        """Position of an exact member id (raises if absent)."""
        key = int(node_id)
        i = int(np.searchsorted(self.ids, np.uint64(key))) if 0 <= key < self._size else self._n
        if i == self._n or int(self.ids[i]) != key:
            raise KeyError(f"id {node_id} is not a ring member")
        return i

    def successor_pos(self, key: int) -> int:
        """Position of the ring member owning ``key`` (successor of key)."""
        i = int(np.searchsorted(self.ids, np.uint64(int(key) % self._size)))
        return 0 if i == self._n else i

    def layer_view(self) -> RingLayer:
        """This ring as a one-ring :class:`RingLayer` (lazy).

        Slot ``i`` of the view is position ``i`` of the ring, so the
        batch kernel runs on a single ring — flat Chord, the global
        layer of HIERAS — exactly as it runs on a layer of many.
        """
        view = self._layer_view
        if view is None:
            view = self._layer_view = RingLayer((self,))
        return view

    def successor_positions(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`successor_pos` of every key at once (``int64`` positions).

        Keys must already lie in the id space (the scalar method wraps;
        the kernels mask before they search).
        """
        view = self.layer_view()
        return view.owner_of[view.successor_slots(np.asarray(keys, dtype=np.uint64))]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def walk(
        self,
        start_pos: int,
        key: int,
        *,
        to_owner: bool,
        succ_list_r: int = 0,
        faults: LookupFaults | None = None,
    ) -> tuple[list[int], bool]:
        """Positions visited routing ``key`` from ``start_pos``, and whether it arrived.

        The one scalar transcription of the ring rule (DESIGN.md §5),
        walked by every layer of every stack under either contact
        policy.  The start is included: hops = ``len(positions) - 1``.

        ``to_owner=True`` ends at the member owning ``key`` (flat
        Chord's loop; HIERAS's §3.2 hop from the global predecessor).
        ``to_owner=False`` stops at the key's ring *predecessor*
        without the final hop — each HIERAS loop: stopping before the
        key, not at the ring successor that generally overshoots it,
        lets the next layer keep shrinking the distance instead of
        re-circling the space.  A start that already owns the key goes
        nowhere (the §3.2 destination check).

        The best hop is the §3.2 shortcut onto the goal when the
        current member's ``succ_list_r``-entry successor list holds it,
        else the closest preceding finger, else — the key in
        ``(current, successor]`` — the hop onto the owner.  With
        ``faults=None`` it is taken outright and the walk arrives.
        Under a fault handle (DESIGN.md §6) the ring is a *stale*
        snapshot: owner and predecessor are the closest *live* ones
        (ground truth fixes the destination only — a node learns a
        finger is dead by timing out on it), the best hop is contacted
        first and, after a timeout, whatever :meth:`_fallback` offers.
        The walk dies (``False``) when every candidate timed out, no
        live member owns the key, the owner is beyond the fallback
        list's reach, or the hop budget ran out (a heavily damaged ring
        must not loop).
        """
        size = self._size
        idlist = self._idlist
        n = self._n
        peers = self.peers
        key = int(key) % size
        first = bisect_left(idlist, key)
        if first == n:
            first = 0
        path = [start_pos]
        owner = first
        if faults is not None:
            is_dead = faults.is_dead
            reach = max(faults.fallback_r, 1)
            budget = 2 * max(n.bit_length(), 4) + faults.fallback_r
            while is_dead(int(peers[owner])):
                owner = (owner + 1) % n
                if owner == first:
                    return path, False  # nobody left alive to own the key
        goal = owner
        if not to_owner and start_pos != owner:
            goal = (owner - 1) % n
            while faults is not None and is_dead(int(peers[goal])):
                goal = (goal - 1) % n
        cur = start_pos
        while cur != goal:
            if faults is not None and len(path) > budget:
                return path, False
            succ = cur + 1 if cur + 1 < n else 0
            if succ_list_r and (goal - cur) % n <= succ_list_r:
                nxt, step = goal, size  # no finger level tried yet
            elif succ == first:
                # Key in (cur, successor]: no finger precedes it.  On a
                # stale ring the owner may sit past dead successors, in
                # reach only while the §3.3 list covers it.
                if faults is not None and (owner - cur) % n > reach:
                    return path, False
                nxt, step = owner, 0
            else:
                # Closest preceding finger: the largest step 2**i with
                # cur + 2**i inside (cur, key) whose ring successor is
                # still strictly inside (cur, key) — finger 0, the
                # successor, at the latest.  ``step <= size / 2`` and
                # ``cur_id < size``, so one conditional subtraction (or
                # addition, for the signed id difference) replaces each
                # ``%`` inside the loop.
                cur_id = idlist[cur]
                d = (key - cur_id) % size
                step = 1 << (d - 1).bit_length()
                nxt = succ
                while step > 1:
                    step >>= 1
                    start = cur_id + step
                    if start >= size:
                        start -= size
                    j = bisect_left(idlist, start)
                    fpos = 0 if j == n else j
                    fd = idlist[fpos] - cur_id
                    if fd < 0:
                        fd += size
                    if 0 < fd < d:
                        nxt = fpos
                        break
            if faults is not None and not faults.contact(int(peers[cur]), int(peers[nxt])):
                for nxt in self._fallback(cur, key, nxt, step, owner if to_owner else -1, reach):
                    if faults.contact(int(peers[cur]), int(peers[nxt])):
                        break
                else:
                    return path, False  # every known candidate is dead/unreachable
            cur = nxt
            path.append(cur)
        return path, True

    def _fallback(
        self, cur: int, key: int, tried: int, step: int, owner: int, reach: int
    ) -> Iterator[int]:
        """What ``cur`` still knows once its best hop ``tried`` timed out (§3.3).

        Best first, each still strictly advancing towards the key: every
        finger below level ``step``, then the ``reach`` entries of the
        successor list, then — ``owner >= 0``, the global loop — the
        live owner itself while the list reaches it (a node's list
        reaches past dead immediate successors).  Enumerated lazily:
        only a timeout brings :meth:`walk` here.
        """
        size = self._size
        idlist = self._idlist
        n = self._n
        cur_id = idlist[cur]
        d = (key - cur_id) % size
        seen = {tried}
        while step > 1:
            step >>= 1
            j = bisect_left(idlist, (cur_id + step) % size)
            fpos = 0 if j == n else j
            if 0 < (idlist[fpos] - cur_id) % size < d and fpos not in seen:
                seen.add(fpos)
                yield fpos
        for k in range(1, min(reach, n - 1) + 1):
            p = (cur + k) % n
            if 0 < (idlist[p] - cur_id) % size < d and p not in seen:
                seen.add(p)
                yield p
        if owner >= 0 and owner not in seen and 0 < (owner - cur) % n <= reach:
            yield owner

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def finger_table(self, pos: int) -> list[FingerEntry]:
        """Materialise the finger table of the member at ``pos``.

        Used by the Table 2 reproduction and by the protocol stack's
        correctness tests; routing itself queries fingers lazily.
        """
        node_id = int(self.ids[pos])
        bits = self.space.bits
        entries = []
        for i in range(1, bits + 1):
            start = (node_id + (1 << (i - 1))) % self._size
            nxt = (node_id + (1 << i)) % self._size if i < bits else node_id
            spos = self.successor_pos(start)
            entries.append(
                FingerEntry(
                    index=i,
                    start=start,
                    interval=(start, nxt),
                    node_id=int(self.ids[spos]),
                    peer=int(self.peers[spos]),
                )
            )
        return entries

    def successor_list(self, pos: int, r: int) -> list[int]:
        """Positions of the ``r`` nearest clockwise successors of ``pos``.

        HIERAS keeps one such list *per layer* for failure recovery
        (§3.3); the list wraps and excludes ``pos`` itself.
        """
        require(r >= 0, "r must be >= 0")
        r = min(r, self._n - 1)
        return [(pos + k) % self._n for k in range(1, r + 1)]

    def arc_members(self, lo: int, hi: int) -> np.ndarray:
        """Positions of members with ids in the clockwise arc ``(lo, hi]``."""
        size = self._size
        lo, hi = int(lo) % size, int(hi) % size
        a = int(np.searchsorted(self.ids, np.uint64(lo), side="right"))
        b = int(np.searchsorted(self.ids, np.uint64(hi), side="right"))
        if lo < hi:
            return np.arange(a, b)
        return np.concatenate([np.arange(a, self._n), np.arange(0, b)])

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def splice(
        self,
        remove_positions: np.ndarray | list[int] | tuple[int, ...],
        insert_ids: np.ndarray | list[int] | tuple[int, ...],
        insert_peers: np.ndarray | list[int] | tuple[int, ...],
    ) -> "SortedRing":
        """A new ring with some members removed and others inserted.

        ``remove_positions`` are current positions (need not be sorted,
        must be distinct); ``insert_ids``/``insert_peers`` are the new
        members (ids in any order, distinct, and absent from the
        surviving membership).  The result is **bit-identical** to
        rebuilding a :class:`SortedRing` from the edited member set with
        an argsort — sorted-unique ids admit exactly one layout — which
        is the contract the incremental membership paths in
        :class:`~repro.dht.chord.ChordNetwork` and
        :class:`~repro.core.hieras.HierasNetwork` rely on.  Cost is
        O(n + k log n) for a size-``n`` ring and ``k`` edits, replacing
        the O(n log n) sort of a full rebuild.
        """
        ids = self.ids
        peers = self.peers
        remove_positions = np.asarray(remove_positions, dtype=np.int64)
        if len(remove_positions):
            ids = np.delete(ids, remove_positions)
            peers = np.delete(peers, remove_positions)
        ins_ids = np.asarray(insert_ids, dtype=np.uint64)
        if len(ins_ids):
            ins_peers = np.asarray(insert_peers, dtype=np.int64)
            order = np.argsort(ins_ids)
            ins_ids = ins_ids[order]
            ins_peers = ins_peers[order]
            at = np.searchsorted(ids, ins_ids)
            ids = np.insert(ids, at, ins_ids)
            peers = np.insert(peers, at, ins_peers)
        return SortedRing(self.space, ids, peers)


class RingLayer:
    """Every ring of one hierarchy layer in one sentinel-separated id array.

    Ring ``r`` occupies slots ``[base[r], base[r] + sizes[r])`` of
    :attr:`ids` and :attr:`peers` in its own sorted order; the slot
    after them holds the sentinel, where a successor search of that
    ring stops when the key lies past its last member.  Two slot-indexed
    tables close each slice into a circle for the raw slot
    :meth:`successor_slots` returns: ``owner_of[raw]`` is the key's
    owner (``raw`` itself, or the ring's first member for its sentinel
    slot) and ``pred_of[raw]`` the last member strictly before the key
    (``raw - 1``, or the ring's last member for its first) — no wrap
    test, whatever ring the lane is in.

    Rings are laid out in the order given, which for a layer of many is
    ring-code order; a ``None`` ring (a retired code) is an empty slice,
    its sentinel slot alone, that no lane ever enters.

    Derived state: O(members) to build from immutable ring snapshots,
    never maintained.  Per member it holds the id (8 B), the peer (8 B),
    the two slot tables (8 B each) and two to four bucket entries
    (1, 2 or 4 B each, by the layer's slot count).
    """

    __slots__ = (
        "space", "ids", "peers", "base", "sizes", "owner_of", "pred_of",
        "_shift", "_offset", "_first",
    )

    def __init__(self, rings: Sequence[SortedRing | None]) -> None:
        live = [ring for ring in rings if ring is not None]
        require(len(live) >= 1, "a layer needs at least one ring")
        self.space = space = live[0].space
        self.sizes = sizes = np.asarray([0 if r is None else len(r) for r in rings], dtype=np.int64)
        ends = np.cumsum(sizes + 1)  # one past each ring's sentinel slot
        total = int(ends[-1])
        self.base = base = ends - sizes - 1
        last = ends - 2

        # Identity on members; a sentinel slot is owned by its ring's first.
        self.owner_of = np.arange(total, dtype=np.int64)
        self.owner_of[ends - 1] = base
        self.pred_of = np.arange(-1, total - 1, dtype=np.int64)
        self.pred_of[base] = last

        # Ring r buckets its ids by their top ceil(log2 n_r) + 1 bits:
        # at most half a member per bucket, whatever the ring's size.
        bucket_bits = [min(space.bits, (n - 1).bit_length() + 1) for n in sizes.tolist()]
        n_buckets = np.asarray([1 << b for b in bucket_bits], dtype=np.int64)
        self._shift = np.asarray([space.bits - b for b in bucket_bits], dtype=np.uint64)
        self._offset = np.cumsum(n_buckets) - n_buckets
        self._first = np.empty(int(n_buckets.sum()), dtype=np.min_scalar_type(total))
        self.ids = np.full(total, _SENTINEL, dtype=np.uint64)
        self.peers = np.full(total, -1, dtype=np.int64)
        for ring, lo, shift, at, width in zip(
            rings, base.tolist(), self._shift, self._offset.tolist(), n_buckets.tolist()
        ):
            if ring is None:
                self._first[at : at + width] = lo
                continue
            self.ids[lo : lo + len(ring)] = ring.ids
            self.peers[lo : lo + len(ring)] = ring.peers
            counts = np.bincount((ring.ids >> shift).view(np.int64), minlength=width)
            self._first[at : at + width] = lo + np.cumsum(counts) - counts

    def successor_slots(
        self, keys: np.ndarray, code: np.ndarray | None = None
    ) -> np.ndarray:
        """Per key, the first slot of its ring holding an id ``>= key``.

        ``code[i]`` is the ring key ``i`` is searched in; ``None`` on a
        one-ring layer.  The result is raw — the ring's sentinel slot
        when the key lies past its last member; ``owner_of``/``pred_of``
        turn it into the owner and the predecessor.  The batch engine's
        one successor search; keys must already lie in the id space.
        """
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(keys.max()) >= self.space.size:
            outside = keys[keys > np.uint64(self.space.size - 1)]
            require(False, f"key {int(outside[0])} is outside the {self.space.bits}-bit id space")
        several = code is None and len(self.sizes) > 1
        require(not several, "a layer of several rings needs each key's ring code")
        return self._search(keys, code)

    def _search(self, keys: np.ndarray, code: np.ndarray | None) -> np.ndarray:
        """:meth:`successor_slots` without its checks, for non-empty keys
        already masked into the id space (the kernel's finger searches)."""
        if code is None:
            bucket = (keys >> self._shift[0]).view(np.int64)
        else:
            bucket = (keys >> self._shift[code]).view(np.int64) + self._offset[code]
        ids = self.ids
        slot = self._first[bucket].astype(np.int64)
        behind = (ids[slot] < keys).nonzero()[0]
        for _ in range(_ADVANCE_ROUNDS):
            if behind.size == 0:
                break
            nxt = slot[behind] + 1
            slot[behind] = nxt
            behind = behind[ids[nxt] < keys[behind]]
        else:
            # Clustered ids: one binary search per ring still behind.
            rings = np.zeros(behind.size, dtype=np.int64) if code is None else code[behind]
            for ring in np.unique(rings).tolist():
                lanes = behind[rings == ring]
                lo = int(self.base[ring])
                members = ids[lo : lo + int(self.sizes[ring])]
                slot[lanes] = lo + np.searchsorted(members, keys[lanes])
        return slot
