"""Failure-injection tests: message loss and topology redundancy edges."""

import numpy as np
import pytest

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.topology.latency import APSPLatencyModel, TransitStubLatencyModel, latency_model_for
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
from repro.util.ids import IdSpace


class TestMessageLoss:
    def test_loss_rate_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimNetwork(sim, ZeroLatency(), loss_rate=1.0)
        with pytest.raises(ValueError):
            SimNetwork(sim, ZeroLatency(), loss_rate=-0.1)

    def test_losses_counted(self):
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency(), loss_rate=0.5, loss_seed=1)

        class Sink(ChordProtocolNode):
            pass

        space = IdSpace(8)
        a = Sink(0, 1, space, sim, net)
        Sink(1, 2, space, sim, net)  # registered receiver
        for _ in range(200):
            a.send(1, "noop")
        sim.run()
        assert 40 < net.messages_lost < 160
        assert net.messages_sent == 200

    def test_local_messages_never_lost(self):
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency(), loss_rate=0.9, loss_seed=2)
        space = IdSpace(8)
        node = ChordProtocolNode(0, 1, space, sim, net)
        received = []
        node.handle_extra = lambda msg: received.append(msg)  # type: ignore[assignment]
        for _ in range(50):
            node.send(0, "self-note")
        sim.run()
        assert len(received) == 50

    def test_chord_converges_under_loss(self):
        """5% random message loss: stabilization must still converge
        the ring (retries and periodic timers absorb the losses)."""
        space = IdSpace(16)
        rng = np.random.default_rng(4)
        n = 16
        ids = space.sample_unique_ids(n, rng)
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency(), loss_rate=0.05, loss_seed=3)
        nodes = [ChordProtocolNode(p, int(ids[p]), space, sim, net) for p in range(n)]
        nodes[0].create_ring(GLOBAL_RING)
        t = 0.0
        for p in range(1, n):
            t += 400.0
            sim.schedule_at(t, nodes[p].join_ring, GLOBAL_RING, 0)
        sim.run(until=t + 90_000, max_events=8_000_000)
        order = np.argsort(ids)
        for i, p in enumerate(order):
            expect = int(order[(i + 1) % n])
            succ = nodes[int(p)].rings[GLOBAL_RING].successor
            assert succ is not None and succ[0] == expect
        assert net.messages_lost > 0


class TestTopologyRedundancy:
    def test_extra_edges_marked(self):
        params = TransitStubParams.for_size(320, extra_uplink_prob=0.5)
        assert params.has_shortcuts
        assert not TransitStubParams.for_size(320).has_shortcuts

    def test_extra_uplinks_added(self):
        params = TransitStubParams.for_size(320, extra_uplink_prob=1.0)
        plain = TransitStubParams.for_size(320)
        topo = generate_transit_stub(params, seed=5)
        base = generate_transit_stub(plain, seed=5)
        assert topo.n_edges == base.n_edges + topo.n_stub_domains
        assert topo.is_connected()

    def test_stub_stub_edges_added(self):
        params = TransitStubParams.for_size(320, stub_stub_edge_prob=1.0)
        plain = TransitStubParams.for_size(320)
        topo = generate_transit_stub(params, seed=5)
        base = generate_transit_stub(plain, seed=5)
        assert topo.n_edges == base.n_edges + topo.n_stub_domains
        assert topo.is_connected()

    def test_model_selection_falls_back_to_apsp(self):
        params = TransitStubParams.for_size(320, extra_uplink_prob=0.5)
        topo = generate_transit_stub(params, seed=6)
        assert isinstance(latency_model_for(topo), APSPLatencyModel)
        plain = generate_transit_stub(TransitStubParams.for_size(320), seed=6)
        assert isinstance(latency_model_for(plain), TransitStubLatencyModel)

    def test_apsp_on_redundant_topology_matches_dijkstra(self, rng):
        params = TransitStubParams.for_size(320, extra_uplink_prob=0.6, stub_stub_edge_prob=0.3)
        topo = generate_transit_stub(params, seed=7)
        model = latency_model_for(topo)
        sources = rng.integers(0, topo.n_routers, 3)
        ground = topo.shortest_delays(sources)
        for i, s in enumerate(sources):
            targets = rng.integers(0, topo.n_routers, 100)
            np.testing.assert_allclose(
                model.pairs(np.full(100, s), targets), np.round(ground[i][targets])
            )

    def test_shortcuts_reduce_distances(self, rng):
        plain = generate_transit_stub(TransitStubParams.for_size(640), seed=8)
        redundant = generate_transit_stub(
            TransitStubParams.for_size(640, stub_stub_edge_prob=0.8), seed=8
        )
        pm = latency_model_for(plain)
        rm = latency_model_for(redundant)
        us = rng.integers(0, plain.n_routers, 3000)
        vs = rng.integers(0, plain.n_routers, 3000)
        assert rm.pairs(us, vs).mean() < pm.pairs(us, vs).mean()
