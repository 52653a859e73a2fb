"""Tests for the fault-injection subsystem and failure-aware routing."""

import numpy as np
import pytest

from repro.dht.base import ZeroLatency
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultState,
    LossyContext,
    RetryPolicy,
)
from repro.sim.engine import Simulator
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimNode
from repro.util.rng import make_rng


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(successor_fallback=-1)

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4

    def test_backoff_without_jitter_is_exact(self):
        policy = RetryPolicy(timeout_ms=100.0, backoff=2.0, jitter=0.0)
        rng = make_rng(0)
        assert policy.attempt_timeout_ms(0, rng) == 100.0
        assert policy.attempt_timeout_ms(1, rng) == 200.0
        assert policy.attempt_timeout_ms(2, rng) == 400.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(timeout_ms=100.0, backoff=1.0, jitter=0.1)
        rng = make_rng(1)
        penalties = [policy.attempt_timeout_ms(0, rng) for _ in range(200)]
        assert all(90.0 <= p <= 110.0 for p in penalties)
        assert max(penalties) > min(penalties)  # jitter actually applied


class TestFaultPlan:
    def test_same_seed_same_events(self):
        def build():
            return (
                FaultPlan(seed=11)
                .crash_fraction(at_ms=100.0, fraction=0.25)
                .loss_burst(at_ms=50.0, rate=0.2, duration_ms=500.0)
                .revive_peers(at_ms=200.0, peers=[3, 5])
            )

        assert build().events(64) == build().events(64)

    def test_different_seed_different_crash_set(self):
        a = FaultPlan(seed=1).crash_fraction(at_ms=0.0, fraction=0.3).events(100)
        b = FaultPlan(seed=2).crash_fraction(at_ms=0.0, fraction=0.3).events(100)
        assert a[0].peers != b[0].peers
        assert len(a[0].peers) == len(b[0].peers) == 30

    def test_durations_expand_to_start_end_pairs(self):
        events = FaultPlan().loss_burst(at_ms=100.0, rate=0.5, duration_ms=400.0).events(10)
        assert [(e.time_ms, e.kind) for e in events] == [
            (100.0, "loss_start"),
            (500.0, "loss_end"),
        ]
        assert events[0].rate == 0.5

    def test_events_time_sorted_stable(self):
        events = (
            FaultPlan(seed=3)
            .crash_peers(at_ms=500.0, peers=[1])
            .loss_burst(at_ms=200.0, rate=0.3, duration_ms=300.0)
            .events(10)
        )
        # loss burst ends exactly when the crash lands; builder order wins ties.
        assert [e.kind for e in events] == ["loss_start", "crash", "loss_end"]

    def test_spec_streams_independent(self):
        """Adding an unrelated spec must not perturb another spec's draws."""
        base = FaultPlan(seed=5).crash_fraction(at_ms=10.0, fraction=0.2)
        extended = (
            FaultPlan(seed=5)
            .crash_fraction(at_ms=10.0, fraction=0.2)
            .loss_burst(at_ms=0.0, rate=0.1, duration_ms=5.0)
        )
        crash_base = [e for e in base.events(40) if e.kind == "crash"][0]
        crash_ext = [e for e in extended.events(40) if e.kind == "crash"][0]
        assert crash_base.peers == crash_ext.peers

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().crash_fraction(at_ms=-1.0, fraction=0.1)
        with pytest.raises(ValueError):
            FaultPlan().crash_fraction(at_ms=0.0, fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(at_ms=0.0, rate=1.0, duration_ms=10.0)
        with pytest.raises(ValueError):
            FaultPlan().loss_burst(at_ms=0.0, rate=0.1, duration_ms=0.0)
        with pytest.raises(ValueError):
            FaultPlan().events(0)

    @pytest.mark.parametrize("builder", ["crash_peers", "revive_peers"])
    @pytest.mark.parametrize("peer", [-1, 2.7, True, np.float64(3.0)])
    def test_peers_must_be_non_negative_integers(self, builder, peer):
        """A negative index would crash a peer from the end of the
        population, a float or bool would be truncated to some peer."""
        with pytest.raises(ValueError, match="peer must be an integer >= 0"):
            getattr(FaultPlan(seed=1), builder)(at_ms=0.0, peers=[peer])

    @pytest.mark.parametrize("builder", ["crash_peers", "revive_peers"])
    def test_peer_beyond_the_population_fails_at_compilation(self, builder):
        plan = getattr(FaultPlan(seed=1), builder)(at_ms=0.0, peers=np.array([3, 50]))
        assert plan.events(51)[0].peers == (3, 50)
        with pytest.raises(ValueError, match=r"peer 50 out of range \[0, 10\)"):
            plan.events(10)
        with pytest.raises(ValueError, match=r"peer 50 out of range"):
            FaultInjector(plan, 10)


class TestFaultState:
    def test_reachability(self):
        state = FaultState(4)
        assert state.reachable(0, 1)
        state.dead[1] = True
        assert not state.reachable(0, 1)
        assert not state.reachable(1, 0)
        assert state.reachable(2, 3)
        state.dead[1] = False
        assert state.reachable(0, 1)


class TestFaultInjector:
    def test_advance_applies_events_once(self):
        plan = FaultPlan(seed=6).crash_peers(at_ms=10.0, peers=[2]).crash_peers(
            at_ms=20.0, peers=[3]
        )
        injector = FaultInjector(plan, 8)
        assert injector.advance_to(5.0) == []
        fired = injector.advance_to(15.0)
        assert [e.peers for e in fired] == [(2,)]
        assert injector.state.is_dead(2) and not injector.state.is_dead(3)
        injector.advance_to(100.0)
        assert injector.state.is_dead(3)
        with pytest.raises(ValueError):
            injector.advance_to(50.0)  # clock cannot run backwards

    def test_revive_undoes_crash(self):
        plan = (
            FaultPlan()
            .crash_peers(at_ms=1.0, peers=[0])
            .revive_peers(at_ms=2.0, peers=[0])
        )
        injector = FaultInjector(plan, 2)
        injector.advance_to(3.0)
        assert not injector.state.is_dead(0)

    def test_contact_no_faults_is_free(self):
        injector = FaultInjector(FaultPlan(), 4)
        ctx = LossyContext()
        before = injector.rng.bit_generator.state["state"]["state"]
        assert injector.contact(0, 1, ctx)
        assert ctx.timeouts == 0 and ctx.retry_latency_ms == 0.0
        # fast path consumed no randomness
        assert injector.rng.bit_generator.state["state"]["state"] == before

    def test_contact_dead_target_exhausts_attempts(self):
        policy = RetryPolicy(timeout_ms=100.0, max_retries=2, backoff=2.0, jitter=0.0)
        injector = FaultInjector(FaultPlan().crash_peers(at_ms=0.0, peers=[1]), 4, policy=policy)
        injector.advance_to(0.0)
        ctx = LossyContext()
        assert not injector.contact(0, 1, ctx)
        assert ctx.timeouts == policy.max_attempts == 3
        assert ctx.retry_latency_ms == 100.0 + 200.0 + 400.0

    def test_same_plan_replays_identically(self):
        plan = FaultPlan(seed=9).loss_burst(at_ms=0.0, rate=0.4, duration_ms=100.0)

        def run():
            injector = FaultInjector(plan, 4)
            injector.advance_to(0.0)
            ctx = LossyContext()
            outcomes = [injector.contact(0, 1, ctx) for _ in range(100)]
            return outcomes, ctx.timeouts, ctx.retry_latency_ms

        assert run() == run()


class _Echo(SimNode):
    """Minimal protocol node: records every delivered message."""

    def __init__(self, peer, sim, net):
        super().__init__(peer, sim, net)
        self.inbox = []

    def handle_message(self, message: Message) -> None:
        self.inbox.append(message.kind)


class TestInstallSim:
    """The same FaultPlan drives the discrete-event stack."""

    def _net(self):
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency(), loss_seed=5)
        nodes = [_Echo(p, sim, net) for p in range(4)]
        return sim, net, nodes

    def test_crash_and_revive_flip_node_liveness(self):
        sim, net, nodes = self._net()
        plan = (
            FaultPlan()
            .crash_peers(at_ms=10.0, peers=[1, 2])
            .revive_peers(at_ms=20.0, peers=[2])
        )
        FaultInjector(plan, 4).install_sim(sim, net)
        sim.run()
        assert not nodes[1].alive
        assert nodes[2].alive and nodes[0].alive

    def test_loss_burst_applies_then_restores_baseline(self):
        sim, net, nodes = self._net()
        plan = FaultPlan().loss_burst(at_ms=0.0, rate=0.5, duration_ms=100.0)
        FaultInjector(plan, 4).install_sim(sim, net)
        for t in (1.0, 150.0):
            sim.schedule_at(
                t, lambda: [nodes[0].send(1, "probe") for _ in range(200)]
            )
        sim.run()
        assert 0 < net.messages_lost < 200  # burst lost some of the first wave
        assert net.loss_rate == 0.0  # baseline restored after the burst
        # second wave (after loss_end) arrived intact
        assert len(nodes[1].inbox) == 400 - net.messages_lost

class TestLossyRoutingStatic:
    def test_no_faults_matches_plain_route(self, small_networks):
        """An empty plan makes route_lossy a penalty-free route()."""
        chord, hieras = small_networks
        rng = make_rng(21)
        for net in (chord, hieras):
            injector = FaultInjector(FaultPlan(), net.n_peers)
            for _ in range(50):
                src = int(rng.integers(0, net.n_peers))
                key = int(rng.integers(0, net.space.size))
                plain = net.route(src, key)
                lossy = net.route_lossy(src, key, injector=injector)
                assert lossy.success
                assert lossy.owner == plain.owner
                assert lossy.timeouts == 0
                assert lossy.retry_latency_ms == 0.0
                assert lossy.total_latency_ms == lossy.latency_ms

    def test_acceptance_20pct_crash_mid_run(self, small_networks):
        """ISSUE acceptance: a plan killing 20% of peers mid-run still
        lets failure-aware lookups complete with measured success rate
        and timeout-penalised latency, while plain route() is untouched."""
        chord, hieras = small_networks
        rng = make_rng(22)
        requests = [
            (int(rng.integers(0, chord.n_peers)), int(rng.integers(0, chord.space.size)))
            for _ in range(200)
        ]
        for net in (chord, hieras):
            plan = FaultPlan(seed=13).crash_fraction(at_ms=100.0, fraction=0.2)
            injector = FaultInjector(plan, net.n_peers)
            baseline = [net.route(s, k).owner for s, k in requests[:20]]
            attempted = succeeded = timeouts = 0
            penalised = 0.0
            for i, (src, key) in enumerate(requests):
                injector.advance_to(float(i))
                if injector.state.is_dead(src):
                    continue
                out = net.route_lossy(src, key, injector=injector)
                attempted += 1
                timeouts += out.timeouts
                penalised += out.retry_latency_ms
                if out.success:
                    succeeded += 1
                    assert not injector.state.is_dead(out.owner)
                else:
                    assert out.owner == -1
            assert injector.state.dead.sum() == round(0.2 * net.n_peers)
            assert attempted > 100
            assert succeeded / attempted > 0.95
            assert timeouts > 0 and penalised > 0.0  # dead fingers were hit
            # plain route() still uses the intact snapshot: same owners,
            # no liveness requirement, no new fields set.
            after = [net.route(s, k) for s, k in requests[:20]]
            assert [r.owner for r in after] == baseline
            assert all(r.success and r.timeouts == 0 for r in after)

    def test_dead_source_rejected(self, small_networks):
        chord, _ = small_networks
        injector = FaultInjector(
            FaultPlan().crash_peers(at_ms=0.0, peers=[7]), chord.n_peers
        )
        injector.advance_to(0.0)
        with pytest.raises(ValueError):
            chord.route_lossy(7, 123, injector=injector)

    def test_unresolvable_lookup_reports_failure(self, small_networks):
        """Crash every peer but the source: no live owner exists."""
        chord, _ = small_networks
        others = [p for p in range(chord.n_peers) if p != 0]
        injector = FaultInjector(
            FaultPlan().crash_peers(at_ms=0.0, peers=others), chord.n_peers
        )
        injector.advance_to(0.0)
        out = chord.route_lossy(0, 999, injector=injector)
        # either the source already owns the key, or the lookup must fail
        if not out.success:
            assert out.owner == -1
        else:
            assert out.owner == 0


class TestProtocolResilience:
    def test_plan_drives_protocol_stack(self):
        """Acceptance: the same FaultPlan machinery drives the sim stack
        and retrying lookups resolve to correct live owners."""
        from repro.experiments.resilience import run_protocol_resilience

        out = run_protocol_resilience(
            universe=12, n_rings=2, n_lookups=20, seed=3
        )
        assert out["crashed"] >= 2
        assert out["messages_lost"] > 0
        total = out["completed"] + out["failed"]
        assert total == 20
        assert out["completed"] >= 0.9 * total
        assert out["correct"] >= 0.9 * out["completed"]


class TestCrashRingAndRegion:
    """Deterministic member resolution for the topology-aware builders."""

    def test_crash_ring_resolves_sorted_members(self, small_networks):
        _, hieras = small_networks
        rings = hieras.rings_at_layer(hieras.depth)
        name = sorted(rings)[0]
        plan = FaultPlan(seed=5).crash_ring(at_ms=10.0, network=hieras, name=name)
        crash = plan.events(hieras.n_peers)[0]
        assert crash.kind == "crash"
        assert list(crash.peers) == sorted(int(p) for p in rings[name].peers)

    def test_crash_ring_unknown_name_rejected(self, small_networks):
        _, hieras = small_networks
        with pytest.raises(ValueError):
            FaultPlan().crash_ring(at_ms=0.0, network=hieras, name="no-such-ring")


class TestEventOrderingAndPartitionDeterminism:
    def test_mixed_builders_sort_by_time_with_stable_ties(self, small_networks):
        _, hieras = small_networks
        name = sorted(hieras.rings_at_layer(hieras.depth))[0]
        events = (
            FaultPlan(seed=8)
            .crash_ring(at_ms=300.0, network=hieras, name=name)
            .loss_burst(at_ms=100.0, rate=0.2, duration_ms=200.0)
            .revive_peers(at_ms=300.0, peers=[0])
            .events(hieras.n_peers)
        )
        times = [e.time_ms for e in events]
        assert times == sorted(times)
        # The crash, the loss_end and the revive all land at t=300;
        # stable argsort preserves builder declaration order.
        assert [e.kind for e in events] == ["loss_start", "crash", "loss_end", "revive"]
