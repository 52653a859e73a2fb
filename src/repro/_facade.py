"""Convenience facade: build a ready-to-route HIERAS network in one call.

Most users start with :func:`quick_network`: the experiments' own
deployment pipeline (:func:`repro.experiments.runner.build_bundle` —
topology, overlay attachment, landmark placement, binning, Chord and
HIERAS, all seeded from one :class:`~repro.experiments.config.SimConfig`)
repackaged as a :class:`NetworkBundle`, so a network built here is the
network the figures route on.  Everything it does can be done (and is
documented) piecewise in the underlying packages — this is sugar, not
the only entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hieras import HierasNetwork
    from repro.dht.base import RouteResult
    from repro.dht.chord import ChordNetwork
    from repro.topology.attach import OverlayAttachment, PeerLatencyView
    from repro.topology.base import Topology

__all__ = ["NetworkBundle", "quick_network"]


@dataclass
class NetworkBundle:
    """A fully wired simulation: topology, overlay and both DHTs.

    Attributes
    ----------
    topology / attachment / peer_latency:
        The substrate: router graph, peer→router placement, and the
        peer-indexed latency view.
    chord:
        Flat Chord network over the same peers (the paper's baseline).
    hieras:
        The HIERAS network (the paper's contribution).
    """

    topology: "Topology"
    attachment: "OverlayAttachment"
    peer_latency: "PeerLatencyView"
    chord: "ChordNetwork"
    hieras: "HierasNetwork"

    def route(self, source: int, key: int) -> "RouteResult":
        """Route ``key`` from ``source`` through HIERAS."""
        return self.hieras.route(source, key)

    def route_chord(self, source: int, key: int) -> "RouteResult":
        """Route ``key`` from ``source`` through flat Chord."""
        return self.chord.route(source, key)


def quick_network(
    n_peers: int = 256,
    *,
    n_landmarks: int | None = None,
    depth: int = 2,
    seed: int = 0,
    bits: int = 32,
    model: str = "ts",
) -> NetworkBundle:
    """Build a small HIERAS network ready for routing.

    Parameters default to :class:`~repro.experiments.config.SimConfig`'s:
    the landmark count of its deployment rule (the paper's 4 below
    4 096 peers), a two-layer hierarchy, and the transit-stub topology
    (§4.1); ``model`` selects ``"ts"``, ``"inet"`` or ``"brite"`` (Inet
    requires ``n_peers * 1.25 >= 3000``, the generator's floor).  The arguments
    are validated as :class:`~repro.experiments.config.SimConfig`
    fields (``n_peers >= 8``, ``depth`` in ``[2, 4]``, …).

    Examples
    --------
    >>> bundle = quick_network(n_peers=128, seed=3)
    >>> r = bundle.route(source=5, key=99)
    >>> r.latency_ms <= bundle.route_chord(source=5, key=99).latency_ms * 3
    True
    """
    # Imported here so `import repro` stays light and the facade module
    # can be imported while the heavier packages are being built/tested.
    from repro.experiments.config import SimConfig
    from repro.experiments.runner import build_bundle

    built = build_bundle(
        SimConfig(
            model=model, n_peers=n_peers, n_landmarks=n_landmarks, depth=depth, seed=seed, bits=bits
        )
    )
    return NetworkBundle(
        topology=built.topology,
        attachment=built.attachment,
        peer_latency=built.peer_latency,
        chord=built.chord,
        hieras=built.hieras,
    )
