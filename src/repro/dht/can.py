"""CAN: a d-dimensional Content-Addressable Network (paper reference [8]).

The paper sketches HIERAS over CAN (§3.2): "the whole coordinate space
can be divided multiple times in different layers, we can create
multilayer neighbor sets accordingly".  This module provides the flat
CAN substrate that :mod:`repro.core.hieras_can` layers.

Construction follows the CAN paper: members join one at a time; each
joiner hashes to a random point, the current owner of that point splits
its zone in half along the next dimension in its round-robin split
order, and the joiner takes the half containing the join point.  Keys
hash to points; a key's owner is the zone containing its point.
Routing is greedy geometric forwarding: each node hands the message to
the neighbour zone closest (torus distance to the zone's nearest point)
to the target.

The implementation is array-backed and static-membership like
:class:`~repro.dht.chord.ChordNetwork`; peers are indices aligned with
the latency model, and a CAN can be built over any peer subset (HIERAS
builds one per ring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.topology.base import LatencyModel
from repro.util.ids import sha1_int
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["CanParams", "CanNetwork", "key_point", "peer_point", "COORD_BITS", "COORD_MAX"]

#: Fixed-point resolution of each coordinate (coordinates are integers
#: in ``[0, 2**COORD_BITS)``, avoiding float zone-boundary ambiguity).
COORD_BITS = 30
COORD_MAX = 1 << COORD_BITS


@dataclass(frozen=True)
class CanParams:
    """Structural parameters of a CAN."""

    dimensions: int = 2

    def __post_init__(self) -> None:
        require_int(self.dimensions, 1, 8, name="dimensions")


def key_point(key: int, dims: int) -> np.ndarray:
    """Deterministically hash a key to a point on the coordinate torus."""
    return np.asarray(
        [sha1_int(f"can:{key}:{d}", COORD_BITS) for d in range(dims)], dtype=np.int64
    )


def peer_point(peer: int, dims: int) -> np.ndarray:
    """A peer's canonical join point on the torus.

    Deterministic per peer so that a node joining *several* CANs (one
    per HIERAS layer) lands at the same point in each: its zones then
    all contain that point, which is what makes the bottom-up layered
    routing geometric — the node that owns the key's point in a lower
    ring is guaranteed to own nearby space in the next layer too.
    """
    return np.asarray(
        [sha1_int(f"can-node:{peer}:{d}", COORD_BITS) for d in range(dims)],
        dtype=np.int64,
    )


def _torus_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise torus distance between coordinates ``a`` and ``b``."""
    d = np.abs(a - b)
    return np.minimum(d, COORD_MAX - d)


class CanNetwork(DHTNetwork):
    """A CAN overlay over a static set of peers.

    Parameters
    ----------
    peers:
        Peer indices participating in this CAN (any subset of the
        global peer universe).
    params, latency:
        Dimensionality and per-hop delay source.
    seed:
        Drives the join order (join *points* are each peer's
        deterministic :func:`peer_point`); the same seed reproduces the
        same zone tree.
    """

    span_label = "can"

    def __init__(
        self,
        peers: np.ndarray,
        *,
        params: CanParams | None = None,
        latency: LatencyModel | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        peers = np.asarray(peers, dtype=np.int64)
        require(len(peers) >= 1, "need at least one peer")
        require(len(np.unique(peers)) == len(peers), "peer indices must be unique")
        self.params = params or CanParams()
        self.latency = latency if latency is not None else ZeroLatency()
        self.peers = peers
        rng = make_rng(seed)
        d = self.params.dimensions
        n = len(peers)

        # Zone bounds per member slot: [lo, hi) along each dimension.
        lo = np.zeros((n, d), dtype=np.int64)
        hi = np.zeros((n, d), dtype=np.int64)
        next_split = np.zeros(n, dtype=np.int64)
        join_order = rng.permutation(n)
        first = int(join_order[0])
        hi[first, :] = COORD_MAX

        occupied = [first]
        for slot in join_order[1:]:
            slot = int(slot)
            point = peer_point(int(peers[slot]), d)
            owner = self._owner_among(point, np.asarray(occupied, dtype=np.int64), lo, hi)
            dim = int(next_split[owner])
            mid = (lo[owner, dim] + hi[owner, dim]) // 2
            lo[slot] = lo[owner]
            hi[slot] = hi[owner]
            if point[dim] >= mid:  # joiner takes the half with its point
                lo[slot, dim] = mid
                hi[owner, dim] = mid
            else:
                hi[slot, dim] = mid
                lo[owner, dim] = mid
            next_split[owner] = (dim + 1) % d
            next_split[slot] = (dim + 1) % d
            occupied.append(slot)

        self._lo = lo
        self._hi = hi
        self._neighbors = self._build_neighbors()
        self._slot_of_peer = {int(p): i for i, p in enumerate(peers)}

    # ------------------------------------------------------------------
    @staticmethod
    def _owner_among(
        point: np.ndarray, slots: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> int:
        inside = np.all((lo[slots] <= point) & (point < hi[slots]), axis=1)
        idx = np.flatnonzero(inside)
        assert len(idx) == 1, "zones must partition the space"
        return int(slots[idx[0]])

    def _build_neighbors(self) -> list[np.ndarray]:
        """Adjacency: zones abutting along one axis, overlapping in all others."""
        lo, hi = self._lo, self._hi
        n, d = lo.shape
        # touch[k][i, j]: zones i, j abut along axis k (incl. torus wrap);
        # overlap[k][i, j]: open intervals overlap along axis k.
        touch = []
        overlap = []
        for k in range(d):
            a0 = lo[:, k][:, None]
            a1 = hi[:, k][:, None]
            b0 = lo[:, k][None, :]
            b1 = hi[:, k][None, :]
            t = (a1 == b0) | (b1 == a0)
            if n > 1:
                t |= ((a1 == COORD_MAX) & (b0 == 0)) | ((b1 == COORD_MAX) & (a0 == 0))
            touch.append(t)
            overlap.append((a0 < b1) & (b0 < a1))
        adjacency = np.zeros((n, n), dtype=bool)
        for k in range(d):
            cond = touch[k].copy()
            for other in range(d):
                if other != k:
                    cond &= overlap[other]
            adjacency |= cond
        np.fill_diagonal(adjacency, False)
        return [np.flatnonzero(adjacency[i]) for i in range(n)]

    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of CAN members."""
        return len(self.peers)

    def _require_member(self, peer: int) -> None:
        """A CAN spans any subset of the peer universe: ``peer`` must be one of its members."""
        require(peer in self._slot_of_peer, f"source peer {peer} is not a member of this CAN")

    def slot_of_peer(self, peer: int) -> int:
        """Internal slot of a peer index (KeyError if absent)."""
        return self._slot_of_peer[int(peer)]

    def _owner_slot(self, point: np.ndarray) -> int:
        inside = np.all((self._lo <= point) & (point < self._hi), axis=1)
        idx = np.flatnonzero(inside)
        assert len(idx) == 1, "zones must partition the space"
        return int(idx[0])

    def owner_of(self, key: int) -> int:
        """Peer owning ``key``'s point."""
        return self.owner_of_point(key_point(self._require_key(key), self.params.dimensions))

    def owner_of_point(self, point: np.ndarray) -> int:
        """Peer owning an explicit coordinate point."""
        return int(self.peers[self._owner_slot(point)])

    # ------------------------------------------------------------------
    def _zone_distance_sq(self, slots: np.ndarray, point: np.ndarray) -> np.ndarray:
        """Squared torus distance from ``point`` to each zone's nearest point."""
        lo = self._lo[slots]
        hi = self._hi[slots]
        inside = (lo <= point) & (point < hi)
        gap_lo = _torus_gap(lo, point)
        gap_hi = _torus_gap(hi - 1, point)
        per_dim = np.where(inside, 0.0, np.minimum(gap_lo, gap_hi).astype(np.float64))
        return (per_dim**2).sum(axis=1)

    def _greedy_hop(self, peer: int, point: np.ndarray) -> tuple[float, int]:
        """``(squared distance, peer)`` of ``peer``'s neighbour zone closest to ``point``."""
        nbrs = self._neighbors[self.slot_of_peer(peer)]
        dists = self._zone_distance_sq(nbrs, point)
        i = int(np.argmin(dists))
        return float(dists[i]), int(self.peers[int(nbrs[i])])

    def route_to_point(self, source: int, point: np.ndarray, *, stop: int | None = None) -> list[int]:
        """Greedy geometric route (peer path) to ``point``'s owner, or to
        peer ``stop`` if the walk reaches it first."""
        target = self.owner_of_point(point)
        return self._walk(
            source, lambda peer: None if peer in (target, stop) else self._greedy_hop(peer, point)[1]
        )

    def route(self, source: int, key: int) -> RouteResult:
        """Greedy CAN routing of ``key`` from ``source``."""
        self._require_source(source)
        key = self._require_key(key)
        path = self.route_to_point(source, key_point(key, self.params.dimensions))
        return self._routed(source, key, path)
