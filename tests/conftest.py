"""Shared fixtures: small deterministic deployments for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.topology.attach import OverlayAttachment, attach_overlay, place_landmarks
from repro.topology.latency import latency_model_for
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
from repro.util.ids import IdSpace
from repro.util.rng import RngFactory


@pytest.fixture(scope="session")
def small_topology():
    """A ~320-router transit-stub topology (session-cached)."""
    return generate_transit_stub(TransitStubParams.for_size(320), seed=7)


@pytest.fixture(scope="session")
def small_latency(small_topology):
    return latency_model_for(small_topology)


@pytest.fixture(scope="session")
def small_deployment(small_topology, small_latency):
    """(attachment, peer_latency, space, ids) for 200 peers, 4 landmarks."""
    rngs = RngFactory(11)
    routers = attach_overlay(small_topology, 200, seed=rngs.get("attach"))
    landmarks = place_landmarks(small_topology, small_latency, 4, seed=rngs.get("lm"))
    attachment = OverlayAttachment(small_topology, routers, landmarks)
    space = IdSpace(32)
    ids = space.sample_unique_ids(200, rngs.get("ids"))
    return attachment, attachment.peer_latency(small_latency), space, ids


@pytest.fixture(scope="session")
def small_networks(small_deployment, small_latency):
    """(chord, hieras) over the small deployment, depth 2."""
    attachment, peer_latency, space, ids = small_deployment
    chord = ChordNetwork(space, ids, latency=peer_latency)
    distances = attachment.landmark_distances(small_latency)
    orders = BinningScheme.paper_for_depth(3).orders(distances)
    hieras = HierasNetwork(
        space, ids, latency=peer_latency, landmark_orders=orders, depth=2
    )
    return chord, hieras


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
