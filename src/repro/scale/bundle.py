"""Substrate sizing and deployment builds for million-peer networks.

Everything here is seed-deterministic through the same
:class:`~repro.util.rng.RngFactory` labels the standard runner uses
(``"topology"``, ``"attach"``, ``"landmarks"``, ``"node-ids"``), so a
scale build at a small N is byte-for-byte the standard build — the
scale path changes only *where state lives*, never what it contains.
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle
from repro.topology.attach import OverlayAttachment, attach_overlay, place_landmarks
from repro.topology.base import Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.inet import InetParams, generate_inet
from repro.topology.latency import latency_model_for
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
from repro.util.ids import IdSpace
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = ["build_scale_bundle", "hot_state_bytes", "scale_ts_params"]


def scale_ts_params(n_routers: int) -> TransitStubParams:
    """Transit-stub parameters sized for very large internetworks.

    Below 100 000 routers this defers to
    :meth:`~repro.topology.transit_stub.TransitStubParams.for_size`, so
    every existing config keeps its exact topology.  Above, the transit
    tier grows with the network while stub domains are pinned near 512
    routers: a per-stub hop-count block stays ≈0.26 MB (``512²`` bytes),
    the unit the latency model fills, evicts and budgets by.  At 1.25 M
    routers that yields 38 transit domains × 8 routers, 2 432 stubs of
    514 — a core APSP under 1 MB and a bounded block working set,
    instead of one monolithic quadratic matrix.
    """
    require(n_routers >= 16, f"transit-stub networks need >= 16 routers, got {n_routers}")
    if n_routers < 100_000:
        return TransitStubParams.for_size(n_routers)
    per_domain = 8
    stubs_per = 8
    target_stub = 512
    n_domains = max(
        4, round(n_routers / (per_domain * (1 + stubs_per * target_stub)))
    )
    n_transit = n_domains * per_domain
    stub_size = max(2, round((n_routers / n_transit - 1) / stubs_per))
    return TransitStubParams(
        n_transit_domains=n_domains,
        transit_nodes_per_domain=per_domain,
        stubs_per_transit_node=stubs_per,
        stub_domain_size=stub_size,
        stub_edge_prob=min(0.5, 1.5 / stub_size),
    )


def _scale_topology(config: SimConfig, seed: np.random.Generator) -> Topology:
    if config.model == "ts":
        return generate_transit_stub(scale_ts_params(config.n_routers), seed=seed)
    if config.model == "inet":
        return generate_inet(InetParams(n_nodes=config.n_routers), seed=seed)
    return generate_brite(BriteParams(n_nodes=config.n_routers), seed=seed)


def build_scale_bundle(config: SimConfig, **latency_budget: int) -> SimulationBundle:
    """Build a deployment sized for millions of peers.

    Same pipeline and seeding as
    :func:`repro.experiments.runner.build_bundle` — topology → latency
    → attachment → landmarks → binning → both stacks — with three scale
    adaptations: no process-wide substrate cache (a million-peer
    substrate is not something to keep two of), transit-stub sizing via
    :func:`scale_ts_params`, and :func:`latency_model_for`'s two numbers
    exposed as ``latency_budget``: blocks totalling more than
    ``streaming_threshold_bytes`` are filled on first use, and no more
    than ``streaming_cache_bytes`` of them are ever held.
    """
    rngs = RngFactory(config.seed)
    topology = _scale_topology(config, rngs.get("topology"))
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
    peer_latency = attachment.peer_latency(model)
    chord = ChordNetwork(space, node_ids, latency=peer_latency)
    scheme = BinningScheme.default_for_depth(config.depth)
    orders = scheme.orders(attachment.landmark_distances(model))
    hieras = HierasNetwork(
        space,
        node_ids,
        latency=peer_latency,
        landmark_orders=orders,
        depth=config.depth,
        successor_list_r=config.successor_list_r,
        successor_list_policy=config.successor_list_policy,
    )
    return SimulationBundle(
        config=config,
        topology=topology,
        attachment=attachment,
        peer_latency=peer_latency,
        space=space,
        node_ids=node_ids,
        orders=orders,
        chord=chord,
        hieras=hieras,
    )


def hot_state_bytes(bundle: SimulationBundle) -> dict[str, int]:
    """Byte counts of the struct-of-arrays routing state of both stacks.

    Seed-deterministic (array shapes and dtypes only), so the numbers
    are safe for a bench document's byte-compared ``metrics`` — and
    they are the receipts for the "no per-peer Python objects on the
    hot path" claim: every entry is a numpy buffer, with ring-name
    strings interned once per *ring*, not per peer.

    Not counted: the batch engine's layer views
    (``RingLayer``, one per plan layer).  They are derived state, built
    lazily on the first batch lookup after a membership wave and dropped
    by the next, so whether they exist depends on what has been routed
    — not on the seed — and they stay outside the byte-compared audit.
    Per member of a layer a view holds a sentinel-separated copy of the
    id and the peer (8 B each), the ``owner_of``/``pred_of`` slot tables
    (8 B each) and two to four bucket entries (4 B each for
    2¹⁶ ≤ slots < 2³², narrower below): ≈ 40–48 B.
    """
    chord = bundle.chord
    hieras = bundle.hieras
    chord_total = (
        chord.ring.ids.nbytes
        + chord.ring.peers.nbytes
        + chord._id_of_peer.nbytes
        + chord._alive.nbytes
    )
    hieras_rings = sum(
        ring.ids.nbytes + ring.peers.nbytes
        for layer in hieras._rings
        for ring in layer
    )
    hieras_total = (
        hieras.global_ring.ids.nbytes
        + hieras.global_ring.peers.nbytes
        + hieras_rings
        + hieras._id_of_peer.nbytes
        + hieras._alive.nbytes
        + hieras._ring_of_peer.nbytes
        + hieras._pos_in_ring.nbytes
        + sum(codes.nbytes for codes in hieras._name_codes)
    )
    return {
        "chord_bytes": int(chord_total),
        "hieras_bytes": int(hieras_total),
        "hieras_ring_name_pool_entries": int(
            sum(len(pool) for pool in hieras._name_pool)
        ),
    }
