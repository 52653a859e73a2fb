"""Tests for the discrete-event engine and message network."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimNode
from repro.topology.latency import CoordinateLatencyModel


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(5.0, out.append, "late")
        sim.schedule(1.0, out.append, "early")
        sim.schedule(3.0, out.append, "mid")
        sim.run()
        assert out == ["early", "mid", "late"]
        assert sim.now == 5.0

    def test_fifo_at_equal_time(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_cancel(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, out.append, "x")
        handle.cancel()
        assert not handle.alive
        sim.run()
        assert out == []

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def outer():
            out.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            out.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert out == [("outer", 1.0), ("inner", 3.0)]

    def test_until_leaves_future_events(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(10.0, out.append, "b")
        sim.run(until=5.0)
        assert out == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert out == ["a", "b"]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=50)

    def test_max_events_boundary_exact(self):
        """run(max_events=N) processes exactly N events, no off-by-one:
        a queue of N events drains fine, N+1 raises after N callbacks."""
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(float(i), out.append, i)
        sim.run(max_events=5)
        assert out == [0, 1, 2, 3, 4]

        sim2 = Simulator()
        fired = []
        for i in range(6):
            sim2.schedule(float(i), fired.append, i)
        with pytest.raises(RuntimeError, match="max_events=5"):
            sim2.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]  # the 6th event never ran

    def test_max_events_ignores_cancelled_tail(self):
        """Budget exhaustion with only cancelled events left returns
        instead of raising."""
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        dead = sim.schedule(2.0, out.append, "b")
        dead.cancel()
        sim.run(max_events=1)
        assert out == ["a"]

    def test_max_events_respects_until(self):
        """A live event beyond `until` must not trip the budget error."""
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(50.0, out.append, "late")
        sim.run(until=10.0, max_events=1)
        assert out == ["a"] and sim.now == 10.0

    def test_schedule_at(self):
        sim = Simulator()
        out = []
        sim.schedule_at(4.0, out.append, "x")
        sim.run()
        assert sim.now == 4.0
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, out.append, "past")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_step(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert out == [1]


class EchoNode(SimNode):
    """Test node: records deliveries; replies to 'ping' with 'pong'."""

    def __init__(self, *args):
        super().__init__(*args)
        self.received: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.received.append(message)
        if message.kind == "ping":
            self.reply(message, "pong")


class TestSimNetwork:
    @pytest.fixture()
    def net(self):
        sim = Simulator()
        coords = np.asarray([[0.0, 0.0], [30.0, 40.0], [60.0, 80.0]])
        network = SimNetwork(sim, CoordinateLatencyModel(coords))
        nodes = [EchoNode(i, sim, network) for i in range(3)]
        return sim, network, nodes

    def test_delivery_delay_is_latency(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "ping")
        sim.run()
        assert len(nodes[1].received) == 1
        # 3-4-5 triangle: delay 50 ms each way.
        assert sim.now == 100.0
        assert nodes[0].received[0].kind == "pong"

    def test_local_send_zero_delay(self, net):
        sim, network, nodes = net
        nodes[0].send(0, "note")
        sim.run()
        assert sim.now == 0.0
        assert nodes[0].received[0].kind == "note"

    def test_failed_node_drops(self, net):
        sim, network, nodes = net
        nodes[1].fail()
        nodes[0].send(1, "ping")
        sim.run()
        assert nodes[1].received == []
        assert network.messages_dropped == 1

    def test_unregistered_peer_drops(self, net):
        sim, network, nodes = net
        network.unregister(2)
        nodes[0].send(2, "ping")
        sim.run()
        assert network.messages_dropped == 1

    def test_stats(self, net):
        sim, network, nodes = net
        nodes[0].send(1, "ping")
        sim.run()
        stats = network.stats()
        assert stats["messages_sent"] == 2.0  # ping + pong
        assert stats["mean_delay_ms"] == 50.0
        assert network.sent_by_kind == {"ping": 1, "pong": 1}

    def test_stats_reports_losses_and_kinds(self, net):
        sim, network, nodes = net
        network.loss_rate = 0.5
        for _ in range(100):
            nodes[0].send(1, "probe")
        sim.run()
        stats = network.stats()
        assert stats["messages_lost"] == float(network.messages_lost)
        assert 20 < network.messages_lost < 80
        assert stats["sent_by_kind"] == {"probe": 100}

    def test_lost_messages_contribute_no_delay(self, net):
        """total_delay_ms / mean_delay_ms must only count messages that
        actually crossed a link (regression: losses used to inflate it)."""
        sim, network, nodes = net
        network.loss_rate = 0.5
        for _ in range(100):
            nodes[0].send(1, "probe")
        sim.run()
        delivered = network.messages_sent - network.messages_lost
        assert network.total_delay_ms == 50.0 * delivered
        assert network.stats()["mean_delay_ms"] == 50.0
        assert len(nodes[1].received) == delivered

    def test_duplicate_registration_rejected(self, net):
        sim, network, nodes = net
        with pytest.raises(ValueError):
            EchoNode(1, sim, network)

    def test_timers_stop_on_fail(self, net):
        sim, network, nodes = net
        fired = []
        nodes[0].after(5.0, fired.append, "x")
        nodes[0].fail()
        sim.run()
        assert fired == []

    def test_timer_fires_when_alive(self, net):
        sim, network, nodes = net
        fired = []
        nodes[0].after(5.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 5.0

    def test_contains_and_peers(self, net):
        _, network, _ = net
        assert 0 in network and 5 not in network
        assert sorted(network._nodes) == [0, 1, 2]
