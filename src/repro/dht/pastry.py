"""Pastry baseline with proximity neighbour selection (paper ref [12]).

The paper positions Pastry as the existing *low-latency* DHT: its
routing tables are built so "topologically adjacent peers have higher
probability to be added" (§1), at the cost of more complex state.  The
paper's future work (§6) plans a comparison of HIERAS against Pastry —
the ``ablation_pastry`` experiment here runs it.

Implementation: classic Pastry with base-``2**b`` digits.

* **Leaf set** — the ``L/2`` numerically closest nodes on each side.
* **Routing table** — one row per shared-prefix length, one column per
  next digit; each entry is chosen by *proximity neighbour selection*
  (PNS): among all nodes with the required prefix, the one with the
  lowest measured latency (sampled, as deployed Pastry does, rather
  than exhaustively).
* **Routing rule** — deliver within leaf-set range to the numerically
  closest node; otherwise forward along the routing table entry that
  extends the shared prefix; fall back to any known node that is both
  prefix-compatible and numerically closer (Pastry's rare case).

Ownership in Pastry is *numerical closeness* (either direction), unlike
Chord's successor rule; :meth:`PastryNetwork.owner_of` implements that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht import pns
from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.intervals import ring_distance
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["PastryParams", "PastryNetwork"]


@dataclass(frozen=True)
class PastryParams:
    """Structural parameters of a Pastry overlay."""

    #: Bits per digit (base ``2**b`` ids); Pastry's default is 4.
    b: int = 4
    #: Leaf-set size (``leaf_set/2`` on each side).
    leaf_set: int = 16
    #: PNS candidate sample size per routing-table entry.
    pns_samples: int = 8

    def __post_init__(self) -> None:
        require_int(self.b, 1, 8, name="b")
        require_int(self.leaf_set, 2, name="leaf_set")
        require(self.leaf_set % 2 == 0, f"leaf_set must be even, got {self.leaf_set}")
        require_int(self.pns_samples, 1, name="pns_samples")


class PastryNetwork(DHTNetwork):
    """A static Pastry overlay with PNS routing tables."""

    span_label = "pastry"

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        params: PastryParams | None = None,
        latency: LatencyModel | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.params = params or PastryParams()
        require(
            space.bits % self.params.b == 0,
            f"id width {space.bits} must be a multiple of digit width {self.params.b}",
        )
        ids = np.asarray(ids, dtype=np.uint64)
        require(len(ids) >= 1, "need at least one peer")
        require(len(np.unique(ids)) == len(ids), "node ids must be unique")
        self.space = space
        self.latency = latency if latency is not None else ZeroLatency()
        self._id_of_peer = ids.copy()
        order = np.argsort(ids)
        self._sorted_ids = ids[order]
        self._sorted_peers = np.arange(len(ids), dtype=np.int64)[order]
        self._pos_of_peer = np.empty(len(ids), dtype=np.int64)
        self._pos_of_peer[self._sorted_peers] = np.arange(len(ids))
        self._tables = pns.prefix_tables(
            ids, b=self.params.b, bits=space.bits, latency=self.latency,
            rng=make_rng(seed), samples=self.params.pns_samples,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return len(self._id_of_peer)

    def id_of(self, peer: int) -> int:
        """Node id of ``peer``."""
        return int(self._id_of_peer[peer])

    def _closeness(self, key: int, peer: int) -> tuple[int, int]:
        """Ring distance to ``key``, then node id: ownership's and leaf-set delivery's one order."""
        peer_id = int(self._id_of_peer[peer])
        return ring_distance(key, peer_id, self.space.size), peer_id

    def owner_of(self, key: int) -> int:
        """Peer whose id is numerically closest to ``key`` (Pastry rule)."""
        key = self.space.wrap(self._require_key(key))
        succ = int(np.searchsorted(self._sorted_ids, key)) % len(self._sorted_ids)
        neighbours = self._sorted_peers[[succ, succ - 1]].tolist()  # -1: the last, by wrap
        return min(neighbours, key=lambda peer: self._closeness(key, peer))

    def leaf_set(self, peer: int) -> np.ndarray:
        """Peer indices of ``peer``'s leaf set (L/2 each side)."""
        half = self.params.leaf_set // 2
        n = len(self._sorted_ids)
        pos = int(self._pos_of_peer[peer])
        if n - 1 < 2 * half:  # too few peers to fill both sides: everyone else
            offsets: range | list[int] = range(1, n)
        else:
            offsets = [k for k in range(-half, half + 1) if k != 0]
        return np.asarray([int(self._sorted_peers[(pos + k) % n]) for k in offsets], dtype=np.int64)

    def shared_prefix_level(self, a: int, b: int) -> int:
        """Number of leading base-``2**b`` digits ids ``a`` and ``b`` share."""
        return (self.space.bits - (int(a) ^ int(b)).bit_length()) // self.params.b

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _within_leaf_range(self, peer: int, key: int) -> bool:
        half = min(self.params.leaf_set // 2, (self.n_peers - 1) // 2)
        if half == 0:
            return True
        n = len(self._sorted_ids)
        pos = int(self._pos_of_peer[peer])
        lo = int(self._sorted_ids[(pos - half) % n])
        hi = int(self._sorted_ids[(pos + half) % n])
        d_total = (hi - lo) % self.space.size
        return (key - lo) % self.space.size <= d_total

    def route(self, source: int, key: int) -> RouteResult:
        """Pastry prefix routing from ``source`` to ``key``'s owner."""
        self._require_source(source)
        key = self.space.wrap(self._require_key(key))
        owner = self.owner_of(key)
        path = self._walk(source, lambda cur: None if cur == owner else self._next_hop(cur, key))
        return self._routed(source, key, path)

    def _next_hop(self, cur: int, key: int) -> int:
        size = self.space.size
        cur_id = int(self._id_of_peer[cur])
        if self._within_leaf_range(cur, key):
            # Deliver to the numerically closest node among self + leaves.
            return min([cur, *self.leaf_set(cur).tolist()], key=lambda peer: self._closeness(key, peer))
        level = self.shared_prefix_level(cur_id, key)
        want = pns.digit(key, level, b=self.params.b, bits=self.space.bits)
        entry = self._tables[cur].get((level, want))
        if entry is not None:
            return entry
        # Rare case: no table entry — fall back to any known node with a
        # prefix at least as long and numerically closer to the key.
        cur_d = ring_distance(key, cur_id, size)
        candidates = list(self.leaf_set(cur)) + list(self._tables[cur].values())
        best, best_d = cur, cur_d
        for cand in candidates:
            cid = int(self._id_of_peer[cand])
            if self.shared_prefix_level(cid, key) >= level:
                d = ring_distance(key, cid, size)
                if d < best_d:
                    best, best_d = int(cand), d
        return best
