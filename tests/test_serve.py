"""Tests for the serving layer (``repro.serve``)."""

import numpy as np
import pytest

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.experiments.serve_exp import mixed_capacity_per_s
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.serve import Completion, DHTService, Request, ServiceConfig
from tests.test_serve_epoch import QUORUM, lossy, mixed_stream, serve

N_PEERS = 120


@pytest.fixture(scope="module")
def bundle():
    return build_bundle(
        SimConfig(model="ts", n_peers=N_PEERS, n_landmarks=4, depth=2, seed=42)
    )


def make_store(net):
    return ReplicatedStore(net, ReplicationPolicy(replicas=2, consistency="quorum"))


def gets(times, source=1, name="k"):
    return [Request(op="get", at_ms=float(t), source=source, name=name) for t in times]


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Request(op="scan", at_ms=0.0, source=1, name="k")

    def test_get_needs_source_and_name(self):
        with pytest.raises(ValueError):
            Request(op="get", at_ms=0.0, name="k")
        with pytest.raises(ValueError):
            Request(op="get", at_ms=0.0, source=1)

    def test_membership_needs_peers(self):
        with pytest.raises(ValueError):
            Request(op="leave", at_ms=0.0)

    def test_completion_total_is_phase_sum(self):
        c = Completion(
            seq=0, op="get", outcome="ok", arrival_ms=0.0,
            queue_wait_ms=1.0, service_ms=2.0, route_ms=3.0, fanout_ms=4.0,
        )
        assert c.total_ms == 10.0
        assert c.served


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ValueError):
            ServiceConfig(deadline_ms=0.0)

    def test_capacity_model(self):
        cfg = ServiceConfig(workers=4, max_batch=32, dispatch_overhead_ms=5.0,
                            per_lookup_ms=0.5)
        scalar = mixed_capacity_per_s(cfg, 1.0, coalesced=False)
        assert mixed_capacity_per_s(cfg, 1.0) > scalar
        assert scalar == pytest.approx(4000.0 / 5.5)


class TestEventLoop:
    def test_requests_must_be_sorted(self, bundle):
        svc = DHTService(bundle.chord)
        with pytest.raises(ValueError):
            svc.run(gets([5.0, 1.0]))

    def test_serves_all_when_underloaded(self, bundle):
        svc = DHTService(bundle.chord)
        result = svc.run(gets(range(0, 1000, 100)))
        assert result.served == 10
        assert result.counts == {"ok": 10}
        assert [c.seq for c in result.completions] == list(range(10))

    def test_queue_wait_zero_when_idle(self, bundle):
        result = DHTService(bundle.chord).run(gets([0.0, 1000.0]))
        assert all(c.queue_wait_ms == 0.0 for c in result.completions)

    def test_makespan_excludes_network_time(self, bundle):
        """Throughput denominator is worker-idle time, not response time."""
        cfg = ServiceConfig(workers=1)
        result = DHTService(bundle.chord, config=cfg).run(gets([0.0]))
        c = result.completions[0]
        assert c.route_ms > 0.0
        assert result.makespan_ms == pytest.approx(c.service_ms)
        assert c.finish_ms == pytest.approx(c.service_ms + c.route_ms)

    def test_batch_coalescing_amortizes_overhead(self, bundle):
        """Gets queued behind a busy worker ride one coalesced batch.

        The loop is work-conserving (no artificial batching delay), so
        the first arrival dispatches alone; the seven that arrive while
        the worker is busy coalesce into a single batch-route call.
        """
        cfg = ServiceConfig(workers=1, max_batch=8)
        burst = DHTService(bundle.chord, config=cfg).run(gets([0.0] * 8))
        assert [c.batch_size for c in burst.completions] == [1] + [7] * 7
        reg = burst.registry
        assert reg.counters["serve.batches"].value == 2
        assert reg.counters["serve.batched_lookups"].value == 8

    def test_scalar_config_never_batches(self, bundle):
        cfg = ServiceConfig(workers=1, max_batch=1)
        result = DHTService(bundle.chord, config=cfg).run(gets([0.0] * 5))
        assert all(c.batch_size == 1 for c in result.completions)
        assert result.registry.counters["serve.batches"].value == 5

    def test_batched_matches_scalar_owners(self, bundle):
        """Coalescing changes scheduling, never routing answers."""
        reqs = [
            Request(op="get", at_ms=0.0, source=i, name=f"k{i % 7}")
            for i in range(16)
        ]
        batched = DHTService(bundle.hieras, config=ServiceConfig(max_batch=16)).run(list(reqs))
        scalar = DHTService(bundle.hieras, config=ServiceConfig(max_batch=1)).run(list(reqs))
        assert [c.owner for c in batched.completions] == [c.owner for c in scalar.completions]
        assert [c.route_ms for c in batched.completions] == [
            c.route_ms for c in scalar.completions
        ]

    def test_fifo_across_ops(self, bundle):
        """A put ahead of gets dispatches first; gets behind it coalesce."""
        reqs = [
            Request(op="put", at_ms=0.0, source=1, name="w", value="v"),
            Request(op="get", at_ms=0.0, source=2, name="a"),
            Request(op="get", at_ms=0.0, source=3, name="b"),
        ]
        cfg = ServiceConfig(workers=1, max_batch=4)
        result = DHTService(bundle.chord, config=cfg).run(reqs)
        put, get_a, get_b = result.completions
        assert put.dispatch_ms <= get_a.dispatch_ms
        assert get_a.batch_size == 2 and get_b.batch_size == 2


class TestAdmissionControl:
    def test_rejects_beyond_queue_limit(self, bundle):
        cfg = ServiceConfig(workers=1, queue_limit=2, max_batch=1)
        result = DHTService(bundle.chord, config=cfg).run(gets([0.0] * 10))
        assert result.rejected > 0
        assert result.served + result.rejected == 10
        assert result.max_queue_depth <= 2
        rejected = [c for c in result.completions if c.outcome == "rejected"]
        assert all(c.total_ms == 0.0 for c in rejected)

    def test_unbounded_queue_never_rejects(self, bundle):
        result = DHTService(bundle.chord, config=ServiceConfig(workers=1)).run(
            gets([0.0] * 50)
        )
        assert result.rejected == 0 and result.served == 50

    def test_deadline_sheds_stale_requests(self, bundle):
        """With one slow worker, queued requests age past their budget."""
        cfg = ServiceConfig(
            workers=1, max_batch=1, deadline_ms=6.0, dispatch_overhead_ms=10.0
        )
        result = DHTService(bundle.chord, config=cfg).run(gets([0.0] * 6))
        shed = [c for c in result.completions if c.outcome == "deadline"]
        assert shed, "expected deadline shedding"
        assert all(c.queue_wait_ms > 6.0 for c in shed)
        assert all(c.route_ms == 0.0 for c in shed)
        assert result.counts["deadline"] == len(shed)

    def test_metrics_account_every_arrival(self, bundle):
        cfg = ServiceConfig(workers=1, queue_limit=3, deadline_ms=8.0)
        result = DHTService(bundle.chord, config=cfg).run(gets([0.0] * 20))
        reg = result.registry
        assert reg.counters["serve.arrivals"].value == 20
        total = sum(result.counts.values())
        assert total == 20


class TestStoreIntegration:
    def test_put_then_get_returns_value(self, bundle):
        store = make_store(bundle.hieras)
        reqs = [
            Request(op="put", at_ms=0.0, source=3, name="alpha", value="v1"),
            Request(op="get", at_ms=100.0, source=7, name="alpha"),
        ]
        result = DHTService(bundle.hieras, store=store).run(reqs)
        put, get = result.completions
        assert put.outcome == "ok" and put.fanout_ms > 0.0
        assert get.outcome == "ok" and get.value == "v1"

    def test_seeded_catalog_readable(self, bundle):
        store = make_store(bundle.chord)
        store.seed_key("hot", "v0")
        result = DHTService(bundle.chord, store=store).run(
            [Request(op="get", at_ms=0.0, source=5, name="hot")]
        )
        assert result.completions[0].value == "v0"

    def test_read_at_missing_key_is_none(self, bundle):
        store = make_store(bundle.chord)
        assert store.read_at(0, int(bundle.chord.space.hash_key("nope"))) is None

    def test_dead_source_fails_cleanly(self, bundle):
        net = bundle.chord
        net.remove_peers([9])
        try:
            result = DHTService(net).run(
                [
                    Request(op="get", at_ms=0.0, source=9, name="k"),
                    Request(op="put", at_ms=0.0, source=9, name="k", value="v"),
                    Request(op="get", at_ms=0.0, source=10, name="k"),
                ]
            )
        finally:
            net.revive_peers([9])
        dead_get, dead_put, live_get = result.completions
        assert dead_get.outcome == "failed"
        assert dead_put.outcome == "failed"
        assert live_get.outcome == "ok"


class TestMembership:
    def test_leave_then_join_restores_liveness(self, bundle):
        net = bundle.hieras
        before = int(net.n_peers)
        wave = (20, 21, 22)
        reqs = [
            Request(op="leave", at_ms=0.0, peers=wave),
            Request(op="join", at_ms=10.0, peers=wave),
        ]
        result = DHTService(net).run(reqs)
        assert int(net.n_peers) == before
        leave, join = result.completions
        assert leave.batch_size == 3 and join.batch_size == 3
        assert result.registry.counters["serve.leave.peers"].value == 3
        assert result.registry.counters["serve.join.peers"].value == 3

    def test_leave_wave_never_empties_overlay(self):
        small = build_bundle(
            SimConfig(model="ts", n_peers=8, n_landmarks=4, depth=2, seed=3)
        )
        net = small.chord
        everyone = tuple(range(8))
        result = DHTService(net).run([Request(op="leave", at_ms=0.0, peers=everyone)])
        assert int(net.n_peers) >= 1
        assert result.completions[0].batch_size < 8

    def test_join_of_alive_peers_is_noop(self, bundle):
        net = bundle.chord
        result = DHTService(net).run([Request(op="join", at_ms=0.0, peers=(1, 2))])
        c = result.completions[0]
        assert c.batch_size == 0 and c.service_ms == 0.0


class TestFailBeforeServing:
    """A bad peer index is rejected before anything is served."""

    @pytest.mark.parametrize("peer", [-1, N_PEERS])
    def test_is_alive_range_checks(self, bundle, peer):
        with pytest.raises(ValueError, match=rf"peer {peer} out of range \[0, {N_PEERS}\)"):
            bundle.hieras.is_alive(peer)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Request(op="get", at_ms=3.0, source=N_PEERS, name="k"),
             rf"request 2 \(get\): peer {N_PEERS} out of range \[0, {N_PEERS}\)"),
            (Request(op="leave", at_ms=3.0, peers=(4, N_PEERS + 5)),
             rf"request 2 \(leave\): peer {N_PEERS + 5} out of range"),
            (Request(op="join", at_ms=3.0, peers=(-1,)),
             r"request 2 \(join\): peer -1 out of range"),
        ],
    )
    def test_rejected_run_touches_nothing(self, bundle, bad, message):
        net = bundle.chord
        store = make_store(net)
        reqs = [
            Request(op="put", at_ms=0.0, source=1, name="w", value="v"),
            Request(op="leave", at_ms=1.0, peers=(30, 31)),
            bad,
        ]
        svc = DHTService(net, store=store)
        with pytest.raises(ValueError, match=message):
            svc.run(reqs)
        assert int(net.n_peers) == N_PEERS
        assert len(store) == 0 and store.stats.puts == 0
        assert svc.registry.snapshot()["counters"] == {}


def _without_engine_counters(registry):
    snap = registry.snapshot()
    for name in ("serve.engine_calls", "serve.engine_lanes"):
        snap["counters"].pop(name, None)
    return snap


class TestMembershipEpochs:
    """Routes are resolved per membership epoch, store ops in dispatch order."""

    def test_get_sees_the_membership_it_was_dispatched_under(self, bundle):
        net = bundle.hieras
        key = int(net.space.hash_key("moving"))
        owner = net.owner_of(key)
        source = (owner + 1) % 50
        reqs = [
            Request(op="get", at_ms=0.0, source=source, name="moving"),
            Request(op="leave", at_ms=100.0, peers=(owner,)),
            Request(op="get", at_ms=200.0, source=source, name="moving"),
            Request(op="join", at_ms=300.0, peers=(owner,)),
            Request(op="get", at_ms=400.0, source=source, name="moving"),
        ]
        result = DHTService(net).run(reqs)
        before, _, between, _, after = result.completions
        present = net.route(source, key)
        net.remove_peers([owner])
        try:
            absent = net.route(source, key)
        finally:
            net.revive_peers([owner])
        assert absent.owner != owner
        assert [before.owner, between.owner, after.owner] == [owner, absent.owner, owner]
        assert [before.route_ms, between.route_ms, after.route_ms] == [
            present.latency_ms, absent.latency_ms, present.latency_ms,
        ]

    def test_read_your_writes_inside_one_epoch(self, bundle):
        store = make_store(bundle.chord)
        reqs = [
            Request(op="put", at_ms=0.0, source=3, name="k", value="v1"),
            Request(op="get", at_ms=100.0, source=4, name="k"),
            Request(op="put", at_ms=200.0, source=5, name="k", value="v2"),
            Request(op="get", at_ms=300.0, source=6, name="k"),
        ]
        result = DHTService(bundle.chord, store=store).run(reqs)
        assert [c.value for c in result.completions] == [None, "v1", None, "v2"]
        assert result.registry.counters["serve.engine_calls"].value == 1

    def test_departed_source_fails_alone_in_its_batch(self, bundle):
        """The leave dispatches first; the three gets queued behind it
        form one simulated batch, which the dead source shrinks to two."""
        cfg = ServiceConfig(workers=1)
        reqs = [
            Request(op="leave", at_ms=0.0, peers=(9,)),
            *[Request(op="get", at_ms=0.0, source=s, name="k") for s in (8, 9, 10)],
            Request(op="join", at_ms=50.0, peers=(9,)),
        ]
        result = DHTService(bundle.chord, config=cfg).run(reqs)
        leave, ok_a, failed, ok_b, _ = result.completions
        assert failed.outcome == "failed" and failed.total_ms == failed.queue_wait_ms
        for c in (ok_a, ok_b):
            assert c.outcome == "ok" and c.batch_size == 2
            assert c.service_ms == cfg.dispatch_overhead_ms + 2 * cfg.per_lookup_ms
            assert c.dispatch_ms == failed.dispatch_ms == leave.service_ms
        assert result.registry.histograms["serve.batch_size"].to_dict()["total"] == 2.0

    def test_storeless_scalar_matches_batched_across_epochs(self, bundle):
        reqs, wave = mixed_stream(bundle.hieras, 60)
        wide = DHTService(bundle.hieras, config=ServiceConfig(max_batch=32)).run(list(reqs))
        scalar = DHTService(bundle.hieras, config=ServiceConfig(max_batch=1)).run(list(reqs))
        assert [c.owner for c in wide.completions] == [c.owner for c in scalar.completions]
        assert [c.route_ms for c in wide.completions] == [c.route_ms for c in scalar.completions]
        assert all(c.outcome == "ok" for c in wide.completions)
        leave, join = (i for i, r in enumerate(reqs) if r.op in ("leave", "join"))
        away = {c.owner for c in wide.completions[leave + 1 : join]}
        present = {c.owner for c in wide.completions[:leave] + wide.completions[join + 1 :]}
        assert not away & set(wave) and set(wave) <= present

    @staticmethod
    def _whole_and_capped(net, monkeypatch, *, faulty, cap):
        """Serve one 300-request churned stream twice on fresh attached
        stores (each under a fresh injector if ``faulty``), the second
        time with the log flushed every ``cap`` lanes; asserts nothing
        but the engine counters moved and returns the requests, both
        registries' counters and the sequence numbers of the lanes each
        capped flush resolved."""

        def run():
            injector = lossy(net) if faulty else None
            reqs, _ = mixed_stream(net, 300, injector=injector)
            return reqs, serve(net, QUORUM, reqs, injector=injector)[0]

        reqs, whole = run()
        flushes = []
        resolve = DHTService._resolve

        def resolve_spy(service, run):
            flushes.append([seq for seq, *_ in run.lanes])
            return resolve(service, run)

        monkeypatch.setattr("repro.serve.service._MAX_LANES", cap)
        monkeypatch.setattr(DHTService, "_resolve", resolve_spy)
        _, capped = run()
        assert capped.completions == whole.completions
        assert _without_engine_counters(capped.registry) == _without_engine_counters(whole.registry)
        return reqs, whole.registry.counters, capped.registry.counters, flushes

    def test_lane_cap_changes_nothing_but_the_engine_calls(self, bundle, monkeypatch):
        reqs, whole, capped, _ = self._whole_and_capped(
            bundle.hieras, monkeypatch, faulty=False, cap=7
        )
        assert whole["serve.engine_calls"].value == 3
        assert capped["serve.engine_calls"].value > 30
        # An injector-free store's puts ride the epoch's call: every get
        # and put is a lane.
        assert (
            capped["serve.engine_lanes"].value
            == whole["serve.engine_lanes"].value
            == sum(r.op in ("get", "put") for r in reqs)
        )

    def test_lane_cap_under_an_injector_counts_gets_and_puts(self, bundle, monkeypatch):
        """A lossy store serves every get and put itself: no engine call,
        and each one is a lane the cap counts — at a cap of one lane,
        every dispatch flushes alone, a put as well as a get batch."""
        reqs, whole, capped, flushes = self._whole_and_capped(
            bundle.hieras, monkeypatch, faulty=True, cap=1
        )
        for counters in (whole, capped):
            assert "serve.engine_calls" not in counters and "serve.engine_lanes" not in counters
        lanes = [f for f in flushes if f]
        assert sum(map(len, lanes)) == sum(r.op in ("get", "put") for r in reqs)
        assert sum(len(f) == 1 and reqs[f[0]].op == "put" for f in lanes) == sum(
            r.op == "put" for r in reqs
        )
        assert all(len({reqs[seq].op for seq in f}) == 1 for f in lanes)
        assert whole["serve.failed"].value > 0


class TestEngineWidth:
    """The registry shows the host's engine calls beside the modelled batches."""

    def test_one_engine_call_per_membership_epoch(self, bundle):
        steady = [
            Request(op="get", at_ms=1.0 * i, source=i % 50, name=f"k{i % 13}") for i in range(300)
        ]
        counters = DHTService(bundle.chord).run(steady).registry.counters
        assert counters["serve.engine_calls"].value == 1
        assert counters["serve.engine_lanes"].value == 300
        assert counters["serve.batched_lookups"].value == 300
        assert counters["serve.batches"].value > 1

        wave = (80, 81, 82)
        churned = sorted(
            [
                *steady,
                Request(op="leave", at_ms=100.0, peers=wave),
                Request(op="join", at_ms=200.0, peers=wave),
            ],
            key=lambda r: r.at_ms,
        )
        counters = DHTService(bundle.chord).run(churned).registry.counters
        assert counters["serve.engine_calls"].value == 3
        assert counters["serve.engine_lanes"].value == 300


class TestDeterminism:
    def test_same_inputs_same_completions(self, bundle):
        reqs = [
            Request(op="get", at_ms=float(i), source=i % N_PEERS, name=f"k{i % 5}")
            for i in range(40)
        ]
        a = DHTService(bundle.chord).run(list(reqs))
        b = DHTService(bundle.chord).run(list(reqs))
        assert a.completions == b.completions
        assert a.registry.snapshot() == b.registry.snapshot()
        assert a.makespan_ms == b.makespan_ms

    def test_throughput_property(self, bundle):
        result = DHTService(bundle.chord).run(gets(np.arange(20.0)))
        assert result.throughput_per_s == pytest.approx(
            1000.0 * result.served / result.makespan_ms
        )
