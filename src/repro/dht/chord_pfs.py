"""Chord with proximity finger selection (PFS).

The paper's §1 observes that flat DHTs ignore topology and §5 credits
Pastry-style designs with choosing topologically-close routing-table
entries.  *Proximity finger selection* is the minimal way to retrofit
that idea onto Chord itself (studied by Gummadi et al., "The Impact of
DHT Routing Geometry on Resilience and Proximity", SIGCOMM 2003): the
``i``-th finger may be **any** node in the interval
``[n + 2^(i-1), n + 2^i)`` — correctness only needs a node that halves
the distance — so pick the lowest-latency candidate in the interval
instead of the interval's first successor.

This gives HIERAS a third comparison point between vanilla Chord and
Pastry: same ring geometry and hop count as Chord, latency improved
purely through neighbour choice.  The ``ablation_pastry`` experiment
runs Chord / Chord+PFS / HIERAS / Pastry / Tapestry side by side.
"""

from __future__ import annotations

import numpy as np

from repro.dht import pns
from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.dht.ring_array import SortedRing
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["PfsChordNetwork"]


class PfsChordNetwork(DHTNetwork):
    """Chord whose finger tables are chosen by proximity.

    Parameters
    ----------
    space, ids, latency:
        As for :class:`~repro.dht.chord.ChordNetwork`.
    pns_samples:
        Candidate sample size per finger interval (deployed systems
        probe a few candidates rather than the whole interval).
    seed:
        Drives candidate sampling.
    """

    span_label = "chord_pfs"

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        latency: LatencyModel | None = None,
        pns_samples: int = 8,
        seed: int | np.random.Generator = 0,
    ) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        require(len(ids) >= 1, "need at least one peer")
        require(len(np.unique(ids)) == len(ids), "node ids must be unique")
        require_int(pns_samples, 1, name="pns_samples")
        self.space = space
        self.latency = latency if latency is not None else ZeroLatency()
        self.pns_samples = pns_samples
        self._id_of_peer = ids.copy()
        order = np.argsort(ids)
        self.ring = SortedRing(space, ids[order], np.arange(len(ids), dtype=np.int64)[order])
        self._fingers = self._build_fingers(make_rng(seed))

    # ------------------------------------------------------------------
    def _build_fingers(self, rng: np.random.Generator) -> list[dict[int, int]]:
        """Per-peer finger map: finger index -> the closest sampled peer of
        ``[n+2^(i-1), n+2^i)``, which is the ring arc ``(n+2^(i-1)-1, n+2^i-1]``."""
        ring = self.ring
        fingers: list[dict[int, int]] = [dict() for _ in range(self.n_peers)]
        for peer, table in enumerate(fingers):
            node_id = self.id_of(peer)
            for i in range(1, self.space.bits + 1):
                half = 1 << (i - 1)
                arc = ring.peers[ring.arc_members(node_id + half - 1, node_id + 2 * half - 1)]
                arc = arc[arc != peer]
                if len(arc):
                    table[i] = pns.closest(self.latency, rng, peer, arc, self.pns_samples)
        return fingers

    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return len(self._id_of_peer)

    def id_of(self, peer: int) -> int:
        """Node id of ``peer``."""
        return int(self._id_of_peer[peer])

    def owner_of(self, key: int) -> int:
        """Chord ownership: the key's successor."""
        return int(self.ring.peers[self.ring.successor_pos(key)])

    # ------------------------------------------------------------------
    def _next_hop(self, cur: int, key: int) -> int:
        """The successor when it owns ``key``, else the highest chosen
        finger still preceding ``key`` (the successor if none does)."""
        size = self.space.size
        cur_id = self.id_of(cur)
        d = (key - cur_id) % size
        succ = self.owner_of(cur_id + 1)
        if d <= (self.id_of(succ) - cur_id) % size:
            return succ
        for i in range((d - 1).bit_length(), 0, -1):
            cand = self._fingers[cur].get(i)
            if cand is None:
                continue
            fd = (self.id_of(cand) - cur_id) % size
            if 0 < fd < d:
                return cand
        return succ

    def route(self, source: int, key: int) -> RouteResult:
        """Greedy Chord routing over the proximity-chosen fingers."""
        key = self.space.wrap(int(key))
        owner = self.owner_of(key)
        path = self._walk(source, lambda cur: None if cur == owner else self._next_hop(cur, key))
        return self._routed(source, key, path)
