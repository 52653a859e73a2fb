"""Maintenance overheads and failure handling (paper §3.3–§3.4).

The paper argues qualitatively that HIERAS's extra state — one finger
table and one successor list per layer, plus ring tables — costs only
"hundreds or thousands of bytes" and that lower-layer upkeep is cheap
because ring mates are topologically close.  This module quantifies
that argument for the ``churn``/cost experiments:

* :func:`state_cost_model` — closed-form per-node state estimate.
* :func:`measured_state_cost` — the same quantities measured on a built
  :class:`~repro.core.hieras.HierasNetwork`.
* :func:`maintenance_traffic_cost` — expected *latency-weighted* cost of
  one round of pinging all maintained neighbours, the paper's point
  that lower-layer maintenance is affordable because those pings are
  short.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hieras import HierasNetwork
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = ["StateCost", "state_cost_model", "measured_state_cost", "maintenance_traffic_cost"]

#: Bytes per routing-table entry: nodeid (20 B for SHA-1 width) + IPv4
#: address/port (6 B) + bookkeeping, rounded as the paper's
#: "hundred or thousands of bytes" arithmetic implies.
BYTES_PER_ENTRY = 32


@dataclass(frozen=True)
class StateCost:
    """Per-node state of one configuration, in entries and bytes."""

    finger_entries: float
    successor_entries: float
    ring_table_entries: float

    @property
    def total_entries(self) -> float:
        """All maintained entries per node."""
        return self.finger_entries + self.successor_entries + self.ring_table_entries

    @property
    def total_bytes(self) -> float:
        """Approximate bytes of routing state per node."""
        return self.total_entries * BYTES_PER_ENTRY


def state_cost_model(
    n_peers: int,
    depth: int,
    *,
    n_rings_per_layer: float | list[float] = 16.0,
    successor_list_len: int = 16,
) -> StateCost:
    """Closed-form §3.4 estimate of per-node state.

    A layer-ℓ ring holds roughly ``n / rings(ℓ)`` peers, and a Chord
    finger table over ``m`` peers has ``log2(m)`` distinct entries, so
    total distinct fingers ≈ ``Σ log2(ring size)``.  Chord itself is the
    ``depth=1`` case.

    ``n_rings_per_layer`` is either a scalar (ring count multiplies by
    that factor per layer — the idealised geometric hierarchy) or one
    explicit ring count per lower layer (layer 2 first), e.g. measured
    from a built network.
    """
    require(n_peers >= 1, "n_peers must be >= 1")
    require(depth >= 1, "depth must be >= 1")
    if isinstance(n_rings_per_layer, (int, float)):
        ring_counts = [float(n_rings_per_layer) ** layer for layer in range(1, depth)]
    else:
        ring_counts = [float(v) for v in n_rings_per_layer]
        require(
            len(ring_counts) == depth - 1,
            f"need {depth - 1} ring counts (layer 2..{depth}), got {len(ring_counts)}",
        )
    fingers = float(np.log2(max(n_peers, 2)))
    for rings in ring_counts:
        ring_size = max(n_peers / max(rings, 1.0), 1.0)
        fingers += float(np.log2(max(ring_size, 2.0)))
    successors = float(successor_list_len * depth)
    # Ring tables: one per ring, four entries each, spread over peers.
    ring_entries = 4.0 * sum(ring_counts) / n_peers
    return StateCost(finger_entries=fingers, successor_entries=successors, ring_table_entries=ring_entries)


def measured_state_cost(
    network: HierasNetwork, *, successor_list_len: int = 16, sample: int = 64, seed: int = 0
) -> StateCost:
    """Measure the §3.4 quantities on a built network."""
    summary = network.maintenance_summary(successor_list_len=successor_list_len, sample=sample, seed=seed)
    return StateCost(
        finger_entries=summary["avg_distinct_fingers_total"],
        successor_entries=summary["successor_list_entries"],
        ring_table_entries=4.0 * summary["avg_ring_tables_hosted"],
    )


def maintenance_traffic_cost(
    network: HierasNetwork, *, successor_list_len: int = 16, sample: int = 128, seed: int = 0
) -> dict[str, float]:
    """Latency-weighted cost of one maintenance round, per layer.

    For a sample of nodes, sums the round-trip delay of pinging every
    successor-list member in each layer.  The paper's claim is that the
    *lower-layer* share of this traffic is cheap because those
    successors are topologically close; the returned dict reports the
    mean per-ping delay per layer so the claim is directly checkable.
    """
    rng = make_rng(seed)
    peers = network.global_ring.peers
    if sample < len(peers):
        peers = rng.choice(peers, size=sample, replace=False)
    out: dict[str, float] = {}
    for layer in range(1, network.depth + 1):
        delays: list[float] = []
        for peer in peers:
            ring = network.ring_of(int(peer), layer)
            pos = ring.pos_of_id(network.id_of(int(peer)))
            succ_positions = ring.successor_list(pos, successor_list_len)
            targets = np.asarray([int(ring.peers[p]) for p in succ_positions], dtype=np.int64)
            if len(targets) == 0:
                continue
            delays.extend(
                network.latency.pairs(
                    np.full(len(targets), int(peer), dtype=np.int64), targets
                )
            )
        out[f"layer{layer}_mean_ping_ms"] = float(np.mean(delays)) if delays else 0.0
    return out
