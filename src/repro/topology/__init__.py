"""Network topology substrates.

The paper evaluates HIERAS on emulated internetworks produced by three
generators (§4.1):

* **GT-ITM Transit-Stub** (primary model) — :mod:`repro.topology.transit_stub`,
  with the paper's link delays: 100 ms intra-transit, 20 ms stub–transit,
  5 ms intra-stub.
* **Inet** — :mod:`repro.topology.inet`, a power-law AS-level graph
  (minimum 3000 nodes, as in the paper).
* **BRITE** — :mod:`repro.topology.brite`, Barabási–Albert incremental
  growth with Waxman-weighted preferential connectivity.

Because the original generator binaries are not redistributable, each is
re-implemented from its published description; DESIGN.md §3 documents
the substitutions.  All generators produce a :class:`~repro.topology.base.Topology`
(router-level graph with integer millisecond link delays) from which a
:class:`~repro.topology.base.LatencyModel` answers pairwise delay queries,
and :mod:`repro.topology.attach` maps overlay peers and landmark nodes
onto routers.
"""

from repro.topology.attach import OverlayAttachment, attach_overlay, place_landmarks
from repro.topology.base import LatencyModel, Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.inet import InetParams, generate_inet
from repro.topology.latency import (
    APSPLatencyModel,
    CoordinateLatencyModel,
    NoisyLatencyModel,
    TransitStubLatencyModel,
    latency_model_for,
)
from repro.topology.transit_stub import (
    TransitStubParams,
    TransitStubTopology,
    generate_transit_stub,
)

__all__ = [
    "Topology",
    "LatencyModel",
    "TransitStubParams",
    "TransitStubTopology",
    "generate_transit_stub",
    "InetParams",
    "generate_inet",
    "BriteParams",
    "generate_brite",
    "APSPLatencyModel",
    "TransitStubLatencyModel",
    "CoordinateLatencyModel",
    "NoisyLatencyModel",
    "latency_model_for",
    "OverlayAttachment",
    "attach_overlay",
    "place_landmarks",
]
