"""Flat DHT substrates.

HIERAS is built *on top of* an existing DHT (§3.1: "It is built on top
of an existing DHT routing algorithm ... we use Chord ... it is easy to
extend HIERAS to other DHT algorithms such as CAN").  This package
provides those substrates:

* :mod:`repro.dht.chord` — Chord, the paper's underlying algorithm and
  its flat baseline; array-backed for trace-driven speed.
* :mod:`repro.dht.chord_protocol` — message-level Chord on the
  discrete-event engine (join/stabilize/fix-fingers), used by churn
  experiments and to validate the array-backed stack.
* :mod:`repro.dht.ring_array` — the sorted-id ring and its one scalar
  walk, shared by Chord and every HIERAS ring.
* :mod:`repro.dht.can` — CAN, the second underlying algorithm the paper
  sketches for HIERAS (§3.2).
* :mod:`repro.dht.pastry` — a Pastry baseline with proximity neighbour
  selection, the "low latency DHT" the paper's future work compares
  against (§6 names Pastry and Tapestry; Pastry is the one run).
* :mod:`repro.dht.chord_pfs` — Chord with proximity-chosen fingers.
* :mod:`repro.dht.pns` — the sampled proximity pick Pastry and
  Chord+PFS fill their state with, and Pastry's prefix tables.

The storage layer the lookups exist for (§3.2's "location information")
is :class:`repro.replication.ReplicatedStore`, over Chord or HIERAS.

The side stacks (CAN, Pastry, Chord+PFS and :mod:`repro.core.hieras_can`)
route through :meth:`~repro.dht.base.DHTNetwork._walk`; each supplies
only its forwarding and ownership rules.
"""

from repro.dht.base import DHTNetwork, RouteResult
from repro.dht.can import CanNetwork, CanParams
from repro.dht.chord import ChordNetwork
from repro.dht.chord_pfs import PfsChordNetwork
from repro.dht.pastry import PastryNetwork, PastryParams
from repro.dht.ring_array import SortedRing

__all__ = [
    "DHTNetwork",
    "RouteResult",
    "SortedRing",
    "ChordNetwork",
    "PfsChordNetwork",
    "CanNetwork",
    "CanParams",
    "PastryNetwork",
    "PastryParams",
]
