"""Overlay attachment: mapping peers and landmarks onto routers.

The DHT layers work in terms of *peers* ``0..n_peers-1``; this module
decides which router each peer (and each landmark) sits on and exposes a
peer-indexed latency view so everything above the topology never handles
router ids.

Paper correspondence: §2.3 wants landmarks "spread across the Internet"
— :func:`place_landmarks` implements a greedy max–min dispersion over
the latency metric (with a plain random strategy for ablations), and
peers attach to stub routers only (end hosts do not sit on the transit
backbone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.base import LatencyModel, Topology, index_lanes
from repro.topology.latency import TransitStubLatencyModel
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = ["OverlayAttachment", "PeerLatencyView", "attach_overlay", "place_landmarks"]

#: Stub routers the ``"spread"`` landmark placement draws its candidates from.
CANDIDATE_POOL = 256


class PeerLatencyView(LatencyModel):
    """Latency model re-indexed from router ids to peer ids.

    Over a :class:`TransitStubLatencyModel` the view holds the model's
    per-router tables gathered once per peer (``model.peer_tables``) and
    prices a peer pair with the model's own arithmetic and block pool,
    without the two ``router_of_peer`` reads; over any other model it
    maps the ids and asks ``model.pairs``.
    """

    def __init__(self, model: LatencyModel, router_of_peer: np.ndarray) -> None:
        self.model = model
        self.router_of_peer = np.asarray(router_of_peer, dtype=np.int64)
        self._tables = (
            model.peer_tables(self.router_of_peer) if isinstance(model, TransitStubLatencyModel) else None
        )

    def pair(self, u: int, v: int) -> float:
        return self.model.pair(int(self.router_of_peer[u]), int(self.router_of_peer[v]))

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us, vs = index_lanes(us, vs)
        if self._tables is not None:
            return self.model._priced(self._tables, us, vs)
        return self.model.pairs(self.router_of_peer[us], self.router_of_peer[vs])


@dataclass
class OverlayAttachment:
    """Placement of an overlay (peers + landmarks) on a topology.

    Attributes
    ----------
    router_of_peer:
        ``(n_peers,)`` router id hosting each peer.
    landmark_routers:
        ``(n_landmarks,)`` router ids of the landmark machines.
    """

    topology: Topology
    router_of_peer: np.ndarray
    landmark_routers: np.ndarray

    def __post_init__(self) -> None:
        self.router_of_peer = np.asarray(self.router_of_peer, dtype=np.int64)
        self.landmark_routers = np.asarray(self.landmark_routers, dtype=np.int64)

    @property
    def n_peers(self) -> int:
        """Number of overlay peers."""
        return len(self.router_of_peer)

    @property
    def n_landmarks(self) -> int:
        """Number of landmark machines."""
        return len(self.landmark_routers)

    def peer_latency(self, model: LatencyModel) -> PeerLatencyView:
        """Peer-indexed view of a router latency model."""
        return PeerLatencyView(model, self.router_of_peer)

    def landmark_distances(self, model: LatencyModel) -> np.ndarray:
        """``(n_peers, n_landmarks)`` matrix of peer→landmark delays.

        This is the measurement matrix the distributed binning scheme
        consumes (each peer *pings* every landmark).
        """
        out = np.empty((self.n_peers, self.n_landmarks), dtype=np.float64)
        for j, lm in enumerate(self.landmark_routers):
            out[:, j] = model.pairs(
                self.router_of_peer, np.full(self.n_peers, lm, dtype=np.int64)
            )
        return out


def attach_overlay(
    topology: Topology,
    n_peers: int,
    *,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Choose an attachment router for each of ``n_peers`` peers.

    Peers attach uniformly at random to **stub** routers, each on its
    own router, matching the paper's one-overlay-node-per-emulated-host
    setup; if there are fewer stub routers than peers, attachment falls
    back to sampling with replacement (co-located peers then see zero
    mutual latency).

    The result is in random order (not sorted): router ids encode stub
    domains, so a sorted result would correlate peer index with
    topology and — combined with any other sorted per-peer attribute —
    contaminate experiments.
    """
    require(n_peers >= 1, "need at least one peer")
    rng = make_rng(seed)
    candidates = topology.stub_routers
    if len(candidates) == 0:
        candidates = np.arange(topology.n_routers)
    if n_peers <= len(candidates):
        return rng.choice(candidates, size=n_peers, replace=False)
    return rng.choice(candidates, size=n_peers, replace=True)


def place_landmarks(
    topology: Topology,
    model: LatencyModel,
    n_landmarks: int,
    *,
    seed: int | np.random.Generator = 0,
    strategy: str = "spread",
) -> np.ndarray:
    """Choose ``n_landmarks`` landmark routers.

    ``strategy="spread"`` (default) runs greedy max–min dispersion: the
    first landmark is random; each subsequent one maximises its minimum
    delay to the landmarks chosen so far, over a random pool of
    ``CANDIDATE_POOL`` stub routers.
    This mimics the paper's "well-known set of machines spread across
    the Internet" (§2.3).  ``strategy="random"`` picks uniformly and is
    used by ablations to show placement sensitivity.
    """
    require(n_landmarks >= 1, "need at least one landmark")
    require(strategy in ("spread", "random"), f"unknown strategy {strategy!r}")
    rng = make_rng(seed)
    candidates = topology.stub_routers
    if len(candidates) == 0:
        candidates = np.arange(topology.n_routers)
    require(
        n_landmarks <= len(candidates),
        f"cannot place {n_landmarks} landmarks on {len(candidates)} stub routers",
    )

    if strategy == "random":
        return np.sort(rng.choice(candidates, size=n_landmarks, replace=False))

    pool_size = min(CANDIDATE_POOL, len(candidates))
    pool = rng.choice(candidates, size=pool_size, replace=False)
    chosen = [int(pool[int(rng.integers(0, pool_size))])]
    min_delay = model.pairs(pool, np.full(pool_size, chosen[0], dtype=np.int64))
    while len(chosen) < n_landmarks:
        idx = int(np.argmax(min_delay))
        nxt = int(pool[idx])
        if nxt in chosen:
            # Pool exhausted of distinct far-apart routers; fall back to
            # any unused candidate.
            unused = np.setdiff1d(pool, np.asarray(chosen))
            nxt = int(rng.choice(unused))
        chosen.append(nxt)
        delays = model.pairs(pool, np.full(pool_size, nxt, dtype=np.int64))
        min_delay = np.minimum(min_delay, delays)
        min_delay[np.isin(pool, np.asarray(chosen))] = -1.0
    return np.sort(np.asarray(chosen, dtype=np.int64))
