"""Build simulations from configs and run request traces through them.

The runner is the bridge between configuration and measurement:

* :func:`build_bundle` — topology → latency model → overlay attachment
  → landmark placement → binning (the paper's levels scaled to the
  landmarks' median delay) → Chord + HIERAS networks, all seeded
  from the config for exact reproducibility.  It is the one deployment
  pipeline, from paper scale to N=10⁶: transit-stub sizing is
  :meth:`~repro.topology.transit_stub.TransitStubParams.for_size` at
  every size, and the latency model's byte budget is a keyword.
  Substrates are cached per
  :meth:`~repro.experiments.config.SimConfig.topology_key` and budget,
  so configs that differ only in binning depth or routing settings
  share one; ``cache=False`` builds one that dies with its bundle.
* :func:`run_pair` — run one trace through both networks, returning
  :class:`~repro.analysis.stats.RouteSample` pairs ready for the
  figure-level reporting; :func:`sample_pair` caches it per
  ``(config, n_requests)``, so a sweep read twice (fig2/fig3,
  fig4/fig5, fig6/fig7, fig8/fig9) routes each cell once per process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import RouteSample, collect_routes
from repro.core.binning import BinningScheme, LandmarkOrders
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.experiments.config import SimConfig
from repro.topology.attach import OverlayAttachment, PeerLatencyView, attach_overlay, place_landmarks
from repro.topology.base import LatencyModel, Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.inet import InetParams, generate_inet
from repro.topology.latency import latency_model_for
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
from repro.util.ids import IdSpace
from repro.util.rng import RngFactory
from repro.workloads.requests import RequestTrace, generate_requests

__all__ = ["SimulationBundle", "build_bundle", "run_pair", "sample_pair", "make_trace"]


@dataclass
class _Substrate:
    """Cached expensive half of a simulation (no binning/DHT state)."""

    topology: Topology
    model: LatencyModel
    attachment: OverlayAttachment
    peer_latency: PeerLatencyView
    node_ids: np.ndarray
    landmark_distances: np.ndarray


@dataclass
class SimulationBundle:
    """A fully built deployment ready for routing experiments."""

    config: SimConfig
    topology: Topology
    attachment: OverlayAttachment
    peer_latency: PeerLatencyView
    space: IdSpace
    node_ids: np.ndarray
    orders: LandmarkOrders
    chord: ChordNetwork
    hieras: HierasNetwork


_SUBSTRATES: dict[tuple, _Substrate] = {}
_SAMPLE_PAIRS: dict[tuple[SimConfig, int], tuple[RouteSample, RouteSample]] = {}

#: Cache ceilings, both evicting oldest-first: 10 000-peer Inet/BRITE
#: substrates hold a 200 MB APSP matrix each; the fig2/fig3
#: sweep reads 28 sample pairs.
_MAX_SUBSTRATES = 6
_MAX_SAMPLE_PAIRS = 48


def _generate_topology(config: SimConfig, seed) -> Topology:
    n = config.n_routers
    if config.model == "ts":
        return generate_transit_stub(TransitStubParams.for_size(n), seed=seed)
    if config.model == "inet":
        return generate_inet(InetParams(n_nodes=n), seed=seed)
    return generate_brite(BriteParams(n_nodes=n), seed=seed)


def _build_substrate(config: SimConfig, **latency_budget: int) -> _Substrate:
    rngs = RngFactory(config.seed)
    topology = _generate_topology(config, rngs.get("topology"))
    model = latency_model_for(topology, **latency_budget)
    routers = attach_overlay(topology, config.n_peers, seed=rngs.get("attach"))
    landmarks = place_landmarks(
        topology,
        model,
        config.n_landmarks,
        seed=rngs.get("landmarks"),
        strategy=config.resolved_landmark_strategy,
    )
    attachment = OverlayAttachment(topology, routers, landmarks)
    space = IdSpace(config.bits)
    node_ids = space.sample_unique_ids(config.n_peers, rngs.get("node-ids"))
    return _Substrate(
        topology=topology,
        model=model,
        attachment=attachment,
        peer_latency=attachment.peer_latency(model),
        node_ids=node_ids,
        landmark_distances=attachment.landmark_distances(model),
    )


def build_bundle(config: SimConfig, *, cache: bool = True, **latency_budget: int) -> SimulationBundle:
    """Build (or fetch the substrate from cache and finish) a full simulation.

    ``latency_budget`` goes to :func:`~repro.topology.latency.latency_model_for`:
    blocks totalling more than ``streaming_threshold_bytes`` are filled on
    first use, and no more than ``streaming_cache_bytes`` of them are held.
    The substrate cache is keyed by the config's
    :meth:`~repro.experiments.config.SimConfig.topology_key` and the budget;
    ``cache=False`` neither reads nor fills it, so nothing outlives the
    returned bundle (the choice for a million-peer substrate).
    """
    key = (config.topology_key(), tuple(sorted(latency_budget.items())))
    sub = _SUBSTRATES.get(key) if cache else None
    if sub is None:
        sub = _build_substrate(config, **latency_budget)
        if cache:
            _SUBSTRATES[key] = sub
            while len(_SUBSTRATES) > _MAX_SUBSTRATES:
                _SUBSTRATES.pop(next(iter(_SUBSTRATES)))
    space = IdSpace(config.bits)
    chord = ChordNetwork(space, sub.node_ids, latency=sub.peer_latency)
    scheme = BinningScheme.default_for_depth(config.depth)
    orders = scheme.orders(sub.landmark_distances)
    hieras = HierasNetwork(
        space,
        sub.node_ids,
        latency=sub.peer_latency,
        landmark_orders=orders,
        depth=config.depth,
        successor_list_r=config.successor_list_r,
        successor_list_policy=config.successor_list_policy,
    )
    return SimulationBundle(
        config=config,
        topology=sub.topology,
        attachment=sub.attachment,
        peer_latency=sub.peer_latency,
        space=space,
        node_ids=sub.node_ids,
        orders=orders,
        chord=chord,
        hieras=hieras,
    )


def make_trace(bundle: SimulationBundle, n_requests: int) -> RequestTrace:
    """The experiment's request trace (uniform, as in the paper)."""
    rngs = RngFactory(bundle.config.seed)
    return generate_requests(
        n_requests, bundle.config.n_peers, bundle.space, seed=rngs.get("requests")
    )


def run_pair(bundle: SimulationBundle, n_requests: int) -> tuple[RouteSample, RouteSample]:
    """Run the trace through Chord and HIERAS; returns both samples."""
    trace = make_trace(bundle, n_requests)
    return collect_routes(bundle.chord, trace), collect_routes(bundle.hieras, trace)


def sample_pair(config: SimConfig, n_requests: int) -> tuple[RouteSample, RouteSample]:
    """:func:`run_pair` on ``config``'s bundle, cached per ``(config, n_requests)``."""
    key = (config, n_requests)
    if key not in _SAMPLE_PAIRS:
        _SAMPLE_PAIRS[key] = run_pair(build_bundle(config), n_requests)
        while len(_SAMPLE_PAIRS) > _MAX_SAMPLE_PAIRS:
            _SAMPLE_PAIRS.pop(next(iter(_SAMPLE_PAIRS)))
    return _SAMPLE_PAIRS[key]
