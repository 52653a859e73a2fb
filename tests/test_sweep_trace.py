"""Tests for the sweep tool and the DES message tracer."""

import csv

import numpy as np
import pytest

from repro.dht.base import ZeroLatency
from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
from repro.experiments import sweep
from repro.experiments.sweep import SweepSpec, run_sweep, write_csv
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.metrics.messages import MessageTracer
from repro.util.ids import IdSpace


class TestSweepSpec:
    def test_cell_count(self):
        spec = SweepSpec(models=("ts", "brite"), sizes=(100, 200), seeds=(1, 2, 3))
        assert spec.n_cells == 12

    def test_configs_enumeration(self):
        spec = SweepSpec(sizes=(100, 200), landmarks=(2, 4))
        configs = list(spec.configs())
        assert len(configs) == 4
        assert {c.n_peers for c in configs} == {100, 200}

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(models=())
        with pytest.raises(ValueError):
            SweepSpec(n_requests=0)


class TestRunSweep:
    def test_rows_and_csv(self, tmp_path):
        spec = SweepSpec(sizes=(200,), landmarks=(4,), seeds=(1,), n_requests=500)
        notes = []
        rows = run_sweep(spec, progress=notes.append)
        assert len(rows) == 1
        assert rows[0]["model"] == "ts"
        assert 0 < rows[0]["latency_ratio_pct"] < 120
        assert notes
        path = tmp_path / "out.csv"
        assert write_csv(rows, path) == 1
        with path.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["n_peers"] == "200"

    def test_invalid_cells_skipped(self):
        # Inet below its floor: skipped, not fatal.
        spec = SweepSpec(models=("inet",), sizes=(200,), n_requests=100)
        notes = []
        rows = run_sweep(spec, progress=notes.append)
        assert rows == []
        assert any("skip" in n for n in notes)
        assert notes == ["skip inet/200: Inet needs >= 3000 routers, this cell has 250"]

    def test_bad_cell_fails_before_any_cell_runs(self, monkeypatch):
        routed = []
        monkeypatch.setattr(sweep, "sample_pair", lambda *a: routed.append(a))
        spec = SweepSpec(sizes=(200,), depths=(2, 5), n_requests=100)
        with pytest.raises(ValueError, match=r"depth must be an integer in \[2, 4\]"):
            run_sweep(spec)
        assert routed == []

    def test_other_errors_are_not_skips(self, monkeypatch):
        def fail(config, n_requests):
            raise ValueError("routing broke")

        monkeypatch.setattr(sweep, "sample_pair", fail)
        notes = []
        with pytest.raises(ValueError, match="routing broke"):
            run_sweep(SweepSpec(sizes=(200,), n_requests=100), progress=notes.append)
        assert notes == []

    def test_malformed_int_list_names_the_flag(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "2x0"])
        err = capsys.readouterr().err
        assert "argument --sizes: expected a comma list of integers, got '2x0'" in err

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")


def build_pair():
    space = IdSpace(12)
    sim = Simulator()
    net = SimNetwork(sim, ZeroLatency())
    a = ChordProtocolNode(0, 100, space, sim, net)
    b = ChordProtocolNode(1, 2000, space, sim, net)
    return sim, net, a, b


class TestMessageTracer:
    def test_records_sends(self):
        sim, net, a, b = build_pair()
        tracer = MessageTracer(net)
        tracer.start()
        a.send(1, "hello", x=1)
        sim.run()
        assert tracer.count() == 1
        assert tracer.events[0].kind == "hello"
        assert tracer.events[0].src == 0 and tracer.events[0].dst == 1

    def test_stop_restores(self):
        sim, net, a, b = build_pair()
        tracer = MessageTracer(net)
        tracer.start()
        tracer.stop()
        a.send(1, "quiet")
        sim.run()
        assert tracer.count() == 0
        assert net.messages_sent == 1  # network still delivered

    def test_context_manager(self):
        sim, net, a, b = build_pair()
        with MessageTracer(net) as tracer:
            a.send(1, "ping1")
            a.send(1, "ping2")
            sim.run()
            assert tracer.count() == 2
        a.send(1, "after")
        sim.run()
        assert tracer.count() == 2

    def test_aggregations(self):
        sim, net, a, b = build_pair()
        with MessageTracer(net) as tracer:
            a.send(1, "x")
            a.send(1, "x")
            b.send(0, "y")
            sim.run()
            assert tracer.count(kind="x") == 2
            assert tracer.count(kind="y") == 1
            assert [e.src for e in tracer.events] == [0, 0, 1]

    def test_between_and_reset(self):
        sim, net, a, b = build_pair()
        tracer = MessageTracer(net)
        tracer.start()
        sim.schedule(10.0, a.send, 1, "late")
        a.send(1, "early")
        sim.run()
        assert [e.time_ms for e in tracer.events] == [0.0, 10.0]
        tracer.reset()
        assert tracer.count() == 0

    def test_join_cost_measurement(self):
        """A realistic use: count messages one protocol join costs."""
        space = IdSpace(12)
        rng = np.random.default_rng(0)
        ids = space.sample_unique_ids(9, rng)
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency())
        nodes = [ChordProtocolNode(p, int(ids[p]), space, sim, net) for p in range(9)]
        nodes[0].create_ring(GLOBAL_RING)
        for p in range(1, 8):
            sim.schedule_at(p * 200.0, nodes[p].join_ring, GLOBAL_RING, 0)
        sim.run(until=20_000, max_events=2_000_000)
        with MessageTracer(net) as tracer:
            nodes[8].join_ring(GLOBAL_RING, 0)
            sim.run(until=sim.now + 3_000, max_events=2_000_000)
            join_msgs = tracer.count()
        assert join_msgs > 0
        # One join costs far less than the whole network's history.
        assert join_msgs < net.messages_sent / 4

    def test_tracer_feeds_registry(self):
        """Optional registry kwarg mirrors traffic into named metrics."""
        from repro.metrics import MetricsRegistry

        sim, net, a, b = build_pair()
        reg = MetricsRegistry()
        with MessageTracer(net, registry=reg) as tracer:
            a.send(1, "x")
            a.send(1, "x")
            b.send(0, "y")
            sim.run()
        assert tracer.count() == 3
        assert reg.counter("trace.messages").value == 3
        assert reg.counter("trace.sent.x").value == 2
        assert reg.counter("trace.sent.y").value == 1
        assert reg.histogram("trace.delay_ms").count == 3

    def test_retired_shim_is_gone(self):
        """repro.sim.trace's grace period is over: the module is deleted.

        The tracer lives in repro.metrics.messages; importing the old
        path must fail outright rather than resolve to a stale stub.
        """
        import importlib
        import sys

        sys.modules.pop("repro.sim.trace", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.trace")
