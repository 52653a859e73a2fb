"""P2P rings, ring names/ids and ring tables (paper §3.1, Table 3).

Every lower-layer ring is identified by its **ring name** — the landmark
order string shared by its members (e.g. ``"012"``) — and by a **ring
id**, the collision-free hash of the name mapped onto the node id space.
The **ring table** of a ring records four extreme members (largest,
second largest, smallest, second smallest node ids) and is stored on the
node whose id is numerically closest to the ring id, replicated on a few
of that node's successors for fault tolerance.  Joining nodes fetch the
ring table (one ordinary Chord lookup) to learn a bootstrap member of
each ring they must join (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.ids import IdSpace
from repro.util.intervals import ring_distance
from repro.util.validation import require

__all__ = ["ring_name", "ring_id", "RingTable", "RingTableDirectory"]


def ring_name(order: str) -> str:
    """Canonical ring name for a landmark order string.

    The paper names rings directly by the order string (ring ``"012"``);
    we keep that, so this is the identity with validation.
    """
    require(len(order) >= 1, "ring name cannot be empty")
    return order


def ring_id(space: IdSpace, name: str) -> int:
    """Ring id: the collision-free hash of the ring name (§3.1).

    A ``"ring:"`` prefix keeps ring ids from colliding with file keys
    hashed from the same strings.
    """
    return space.hash_key("ring:" + ring_name(name))


@dataclass
class RingTable:
    """The four extreme members of a ring (paper Table 3).

    Node ids (with their peer indices) of the largest, second-largest,
    smallest and second-smallest members.  Rings with fewer than four
    members repeat what they have, like a real deployment would.
    """

    ringid: int
    ringname: str
    largest: tuple[int, int]
    second_largest: tuple[int, int]
    smallest: tuple[int, int]
    second_smallest: tuple[int, int]

    @classmethod
    def from_members(
        cls, space: IdSpace, name: str, ids: np.ndarray, peers: np.ndarray
    ) -> "RingTable":
        """Build the table from a ring's (sorted) membership arrays."""
        require(len(ids) >= 1, "ring table needs at least one member")
        ids = np.asarray(ids, dtype=np.uint64)
        peers = np.asarray(peers, dtype=np.int64)
        n = len(ids)
        entry = lambda i: (int(ids[i]), int(peers[i]))  # noqa: E731
        return cls(
            ringid=ring_id(space, name),
            ringname=name,
            largest=entry(n - 1),
            second_largest=entry(max(n - 2, 0)),
            smallest=entry(0),
            second_smallest=entry(min(1, n - 1)),
        )


class RingTableDirectory:
    """Placement and retrieval of ring tables on the global ring.

    :meth:`host_of` answers the question the §3.3 join protocol needs:
    which peer stores a ring's table?  The paper places it on the node
    whose id is *numerically closest* to the ring id (shortest distance
    around the circle in either direction); the paper also replicates it
    on the host's successors, which this static directory does not model.

    The directory is rebuilt from authoritative membership by the static
    stack; the protocol stack (``repro.core.hieras_protocol``) maintains
    it with messages instead and is tested against this one.
    """

    def __init__(self, space: IdSpace) -> None:
        self.space = space
        self._tables: dict[str, RingTable] = {}

    # ------------------------------------------------------------------
    def publish(self, name: str, ids: np.ndarray, peers: np.ndarray) -> RingTable:
        """(Re)build and store the ring table for ``name``."""
        table = RingTable.from_members(self.space, name, ids, peers)
        self._tables[name] = table
        return table

    def names(self) -> list[str]:
        """All ring names with a published table."""
        return sorted(self._tables)

    def drop(self, name: str) -> None:
        """Forget a ring (its last member left)."""
        self._tables.pop(name, None)

    # ------------------------------------------------------------------
    def host_of(self, name: str, global_ids: np.ndarray, global_peers: np.ndarray) -> int:
        """Peer that stores ring ``name``'s table.

        ``global_ids`` must be the sorted ids of the global ring;
        ``global_peers`` the aligned peer indices.  Returns the peer
        whose id is numerically closest to the ring id (ties broken
        clockwise, i.e. toward the successor).
        """
        rid = ring_id(self.space, name)
        global_ids = np.asarray(global_ids, dtype=np.uint64)
        idx = int(np.searchsorted(global_ids, rid))
        n = len(global_ids)
        succ = idx % n
        pred = (idx - 1) % n
        d_succ = ring_distance(rid, int(global_ids[succ]), self.space.size)
        d_pred = ring_distance(rid, int(global_ids[pred]), self.space.size)
        best = succ if d_succ <= d_pred else pred
        return int(global_peers[best])
