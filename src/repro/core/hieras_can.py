"""HIERAS over CAN (paper §3.2's sketched generalisation).

    "if we use CAN as the underlying algorithm, the whole coordinate
    space can be divided multiple times in different layers, we can
    create multilayer neighbor sets accordingly and use these neighbor
    sets in different loops during a routing procedure."

Concretely: every lower-layer ring's members build their **own** CAN
over the full coordinate torus (the space is "divided multiple times"),
so each node owns one zone per layer and keeps one neighbour set per
layer.  A lookup routes greedily in the originator's lowest-layer CAN
until it reaches the member whose *ring-layer* zone contains the key's
point, then continues in that node's next-layer CAN, finishing in the
global CAN at the key's true owner.  Every loop also stops at that
owner (§3.2's destination check).  Unlike the ring case there is no
overshoot subtlety: geometric distance to the target point decreases
monotonically across layers because every layer's stopping node's zone
contains the point.
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import LandmarkOrders
from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.dht.can import CanNetwork, CanParams, key_point
from repro.topology.base import LatencyModel
from repro.util.validation import require, require_int

__all__ = ["HierasCanNetwork"]


class HierasCanNetwork(DHTNetwork):
    """Multi-layer CAN: one coordinate-space division per layer."""

    span_label = "hieras_can"

    def __init__(
        self,
        n_peers: int,
        *,
        landmark_orders: LandmarkOrders,
        params: CanParams | None = None,
        latency: LatencyModel | None = None,
        depth: int | None = None,
        seed: int = 0,
    ) -> None:
        require(n_peers >= 1, "need at least one peer")
        require(
            landmark_orders.n_nodes == n_peers,
            f"landmark orders cover {landmark_orders.n_nodes} nodes, network has {n_peers}",
        )
        depth = depth if depth is not None else landmark_orders.depth
        require_int(depth, 2, landmark_orders.depth, name="depth")
        self.params = params or CanParams()
        self.latency = latency if latency is not None else ZeroLatency()
        self.depth = depth
        self.orders = landmark_orders
        self._n = n_peers

        self.global_can = CanNetwork(
            np.arange(n_peers), params=self.params, latency=self.latency, seed=seed
        )
        # One CAN per ring code per lower layer; peers keep their global
        # indices inside each ring CAN.
        self._layer_cans = [
            [
                CanNetwork(
                    np.flatnonzero(codes == code),
                    params=self.params,
                    latency=self.latency,
                    seed=seed * 1_000_003 + k * 1009 + code,
                )
                for code in range(len(landmark_orders.name_pools[k]))
            ]
            for k, codes in enumerate(landmark_orders.codes_per_layer[: depth - 1])
        ]

    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return self._n

    def can_of(self, peer: int, layer: int) -> CanNetwork:
        """The CAN ``peer`` belongs to at ``layer`` (1 = global)."""
        require(1 <= layer <= self.depth, f"layer must be in [1, {self.depth}]")
        if layer == 1:
            return self.global_can
        return self._layer_cans[layer - 2][int(self.orders.codes_per_layer[layer - 2][peer])]

    def owner_of(self, key: int) -> int:
        """Peer owning ``key`` in the global CAN."""
        return self.global_can.owner_of(key)

    # ------------------------------------------------------------------
    def route(self, source: int, key: int) -> RouteResult:
        """Bottom-up routing through the layered CANs.

        Every loop stops at the key's global owner (the §3.2 destination
        check): a lookup from the owner takes no hop, and one that meets
        the owner in a ring CAN ends there instead of walking on.
        """
        self._require_source(source)
        key = self._require_key(key)
        point = key_point(key, self.params.dimensions)
        owner = self.global_can.owner_of_point(point)
        path = [int(source)]
        hops_per_layer: list[int] = []
        for layer in range(self.depth, 0, -1):
            sub = self.can_of(path[-1], layer).route_to_point(path[-1], point, stop=owner)
            hops_per_layer.append(len(sub) - 1)
            path.extend(sub[1:])
        return self._routed(source, key, path, hops_per_layer)
