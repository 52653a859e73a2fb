"""Failure-injection tests: message loss on the discrete-event network."""

import numpy as np
import pytest

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
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
