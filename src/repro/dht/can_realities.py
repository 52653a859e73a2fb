"""CAN *multiple realities* (the CAN paper's routing improvement).

The CAN design (paper reference [8]) improves path length by
maintaining ``r`` independent coordinate spaces — *realities*.  Every
node owns one zone per reality; a key is stored at its point owner in
every reality.  Routing exploits all of them simultaneously: at each
hop the message may jump to the neighbour closest to the target across
*any* reality, and it completes as soon as the current node owns the
key's point in *some* reality.

This matters here as a second axis of comparison for HIERAS-over-CAN:
both multiple realities and the HIERAS layering attack CAN's long
routes, through redundancy vs through topology-awareness — the
``ablation_can`` discussion in EXPERIMENTS.md contrasts them.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.dht.can import CanNetwork, CanParams, key_point
from repro.topology.base import LatencyModel
from repro.util.validation import require_int

__all__ = ["MultiRealityCan"]


class MultiRealityCan(DHTNetwork):
    """``r`` independent CANs over the same peers, routed jointly."""

    span_label = "can_realities"

    def __init__(
        self,
        peers: np.ndarray,
        *,
        realities: int = 3,
        params: CanParams | None = None,
        latency: LatencyModel | None = None,
        seed: int = 0,
    ) -> None:
        require_int(realities, 1, name="realities")
        peers = np.asarray(peers, dtype=np.int64)
        self.params = params or CanParams()
        self.latency = latency if latency is not None else ZeroLatency()
        self.realities = [
            CanNetwork(
                peers,
                params=self.params,
                latency=self.latency,
                # Distinct join orders give independent zone layouts;
                # join POINTS stay the per-peer canonical ones, which is
                # fine — independence comes from the split sequence.
                seed=seed * 7919 + r,
            )
            for r in range(realities)
        ]
        self.peers = peers

    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return len(self.peers)

    def owner_of(self, key: int) -> int:
        """The key's owner in reality 0 (the canonical replica)."""
        return self.realities[0].owner_of(key)

    def owners_of(self, key: int) -> list[int]:
        """The key's owner in every reality (its replica set)."""
        return [can.owner_of(key) for can in self.realities]

    # ------------------------------------------------------------------
    def route(self, source: int, key: int) -> RouteResult:
        """Greedy routing over the union of all realities' neighbours.

        Terminates at the first node owning the point in any reality.
        """
        point = key_point(int(key), self.params.dimensions)
        owners = set(self.owners_of(int(key)))

        def step(cur: int) -> int | None:
            if cur in owners:
                return None
            # The first reality wins a tie, as min keeps the first minimum.
            hops = (can._greedy_hop(cur, point) for can in self.realities)
            return min(hops, key=itemgetter(0))[1]

        return self._routed(source, int(key), self._walk(source, step))
