"""HIERAS core: the paper's primary contribution.

* :mod:`repro.core.binning` — the distributed binning scheme (§2.2,
  Table 1): landmark latency orders that decide ring membership.
* :mod:`repro.core.landmarks` — landmark tables and landmark-failure
  handling (§2.3).
* :mod:`repro.core.ring` — P2P rings, ring names/ids and ring tables
  (§3.1, Table 3).
* :mod:`repro.core.hieras` — the multi-layer HIERAS network over Chord:
  per-layer finger tables and the bottom-up routing procedure (§3.2).
* :mod:`repro.core.hieras_can` — HIERAS over CAN (§3.2's sketched
  generalisation).
* :mod:`repro.core.hieras_protocol` — the §3.3 node-operations protocol
  on the event engine (joins, ring-table fetch/handoff, hierarchical
  lookups).
* :mod:`repro.core.maintenance` — the §3.4 cost model and failure
  helpers.
"""

from repro.core.binning import DEFAULT_LEVELS, BinningScheme, LandmarkOrders
from repro.core.hieras import HierasNetwork
from repro.core.landmarks import LandmarkSet
from repro.core.ring import RingTable, RingTableDirectory, ring_id, ring_name

__all__ = [
    "BinningScheme",
    "LandmarkOrders",
    "DEFAULT_LEVELS",
    "LandmarkSet",
    "RingTable",
    "RingTableDirectory",
    "ring_id",
    "ring_name",
    "HierasNetwork",
]
