"""Tests for the scenario suite (``repro.scenarios``)."""

import dataclasses
import json

import pytest

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.experiments.scenarios_exp import check_gates, report, run_bench
from repro.faults import FaultPlan
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.scenarios import (
    SCENARIOS,
    CompiledScenario,
    ScenarioParams,
    recovery_time_ms,
    run_scenario_cell,
    scenario_names,
    series_summary,
)
from repro.scenarios import runner as scenario_runner
from repro.scenarios.library import (
    compile_abrupt_crash,
    compile_graceful_leave,
    compile_regional_failure,
    compile_two_wave_crash,
)
from repro.serve.request import Request

N_PEERS = 120

CONFIG = SimConfig(model="ts", n_peers=N_PEERS, n_landmarks=4, depth=2, seed=7)
PARAMS = ScenarioParams(
    seed=11,
    duration_ms=1500.0,
    probe_interval_ms=150.0,
    n_probes=8,
    rate_per_s=20.0,
    fault_at_ms=600.0,
    stabilize_delay_ms=300.0,
    catalog_size=16,
)


@pytest.fixture(scope="module")
def bundle():
    return build_bundle(CONFIG)


class TestTimeline:
    def test_recovery_clean_dip(self):
        times = [100.0, 200.0, 300.0, 400.0, 500.0]
        rates = [1.0, 0.5, 0.8, 0.95, 1.0]
        assert recovery_time_ms(times, rates, fault_start_ms=150.0, threshold=0.9) == (
            250.0,
            True,
        )

    def test_recovery_is_sustained_not_first_crossing(self):
        # One good cohort mid-flap must not count as recovery.
        times = [100.0, 200.0, 300.0, 400.0]
        rates = [0.5, 0.95, 0.5, 0.95]
        assert recovery_time_ms(times, rates, fault_start_ms=100.0, threshold=0.9) == (
            300.0,
            True,
        )

    def test_recovery_censored(self):
        assert recovery_time_ms(
            [100.0, 200.0], [0.5, 0.5], fault_start_ms=0.0, threshold=0.9
        ) == (-1.0, False)

    def test_no_dip_recovers_at_first_post_fault_tick(self):
        assert recovery_time_ms(
            [100.0, 200.0], [1.0, 1.0], fault_start_ms=150.0, threshold=0.9
        ) == (50.0, True)

    def test_series_summary(self):
        assert series_summary([]) == {"mean": 0.0, "min": 0.0, "final": 0.0}
        summary = series_summary([1.0, 0.5, 0.75])
        assert summary == {"mean": 0.75, "min": 0.5, "final": 0.75}


class TestCompile:
    def test_every_scenario_compiles_with_sorted_waves(self, bundle):
        for name in scenario_names():
            compiled = SCENARIOS[name](bundle, PARAMS)
            assert compiled.name == name
            times = [r.at_ms for r in compiled.requests]
            assert times == sorted(times)
            assert any(r.op not in ("get", "put") for r in compiled.requests)
            assert compiled.duration_ms == PARAMS.duration_ms

    def test_compilation_is_deterministic(self, bundle):
        for name in scenario_names():
            a = SCENARIOS[name](bundle, PARAMS)
            b = SCENARIOS[name](build_bundle(CONFIG), PARAMS)
            assert a.plan.events(N_PEERS) == b.plan.events(N_PEERS)
            assert a.requests == b.requests
            assert a.initial_offline == b.initial_offline
            assert a.notes == b.notes

    def test_departure_pair_shares_the_cohort(self, bundle):
        graceful = compile_graceful_leave(bundle, PARAMS)
        abrupt = compile_abrupt_crash(bundle, PARAMS)
        crash = [e for e in abrupt.plan.events(N_PEERS) if e.kind == "crash"][0]
        (leave,) = [r for r in graceful.requests if r.op == "leave"]
        assert leave.graceful and leave.peers == crash.peers
        (purge,) = [r for r in abrupt.requests if r.op == "leave"]
        assert not purge.graceful and purge.peers == crash.peers
        assert graceful.notes["departed"] == abrupt.notes["departed"]

    def test_regional_failure_kills_a_whole_ring(self, bundle):
        compiled = compile_regional_failure(bundle, PARAMS)
        rings = bundle.hieras.rings_at_layer(bundle.hieras.depth)
        members = sorted(
            int(p) for p in rings[compiled.notes["ring_name"]].peers
        )
        crash = [e for e in compiled.plan.events(N_PEERS) if e.kind == "crash"][0]
        assert list(crash.peers) == members
        assert compiled.notes["ring_size"] == len(members)
        assert len(members) == max(len(r) for r in rings.values())

    def test_two_wave_crash_runs_one_op_per_tick(self, bundle):
        params = dataclasses.replace(PARAMS, probe_interval_ms=1.0, fail_fraction=0.25)
        compiled = compile_two_wave_crash(bundle, params)
        n_keys, half = PARAMS.catalog_size, PARAMS.catalog_size // 2
        writes, reads = n_keys + 2 * half, 2 * (n_keys + half)
        ops = [r.op for r in compiled.requests]
        assert ops == ["put"] * writes + ["get"] * reads
        ticks = [r.at_ms for r in compiled.requests]
        # One op per tick, with one empty tick (wave 2) before the reads.
        assert ticks == [float(t) for t in range(1, writes + 1)] + [
            float(t) for t in range(writes + 2, writes + 2 + reads)
        ]
        assert compiled.duration_ms == writes + 2 + reads
        assert compiled.seeded == ()
        kinds = [(e.time_ms, e.kind) for e in compiled.plan.events(N_PEERS)]
        assert kinds == [
            (n_keys + 1.0, "crash"), (writes + 1.0, "crash"), (writes + 2.0, "revive")
        ]
        assert compiled.notes["crashed_per_wave"] == round(0.25 * N_PEERS)

    def test_two_wave_crash_refuses_to_crash_everyone(self, bundle):
        for fraction in (1.0, 1.0 - 0.1 / N_PEERS):
            with pytest.raises(ValueError, match="fail_fraction must leave a survivor"):
                compile_two_wave_crash(bundle, dataclasses.replace(PARAMS, fail_fraction=fraction))

    def test_landmark_waves_carry_ring_names(self, bundle):
        compiled = SCENARIOS["landmark_outage_rolling"](bundle, PARAMS)
        rebinds = [r for r in compiled.requests if r.op == "join"]
        assert rebinds
        for wave in rebinds:
            assert len(wave.ring_names) == len(wave.peers)
            for names in wave.ring_names:
                assert len(names) == CONFIG.depth - 1

    def test_weibull_purge_skips_a_peer_revived_before_it_fires(self, bundle):
        """A stabilize purge is a silent leave of the peers the plan still
        has crashed when it fires: one revived in between stays."""
        compiled = SCENARIOS["weibull_churn"](bundle, PARAMS)
        events = compiled.plan.events(N_PEERS)

        def crashed_at(peer, t):
            last = [e.kind for e in events if peer in e.peers and e.time_ms <= t]
            return bool(last) and last[-1] == "crash"

        purged = {
            (r.at_ms, p) for r in compiled.requests if r.op == "leave" and not r.graceful for p in r.peers
        }
        outcomes = []
        for crash in (e for e in events if e.kind == "crash"):
            at = crash.time_ms + PARAMS.stabilize_delay_ms
            if at < PARAMS.duration_ms:
                (peer,) = crash.peers
                outcomes.append(crashed_at(peer, at))
                assert ((at, peer) in purged) == outcomes[-1]
        assert len(purged) == sum(outcomes) and not all(outcomes)


class TestRunner:
    def test_cell_is_deterministic(self):
        a = run_scenario_cell(CONFIG, "regional_failure", "hieras", PARAMS)
        b = run_scenario_cell(CONFIG, "regional_failure", "hieras", PARAMS)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_metric_shape(self):
        cell = run_scenario_cell(CONFIG, "graceful_leave", "chord", PARAMS)
        n_ticks = int(PARAMS.duration_ms // PARAMS.probe_interval_ms)
        assert len(cell["availability"]) == n_ticks
        assert all(0.0 <= a <= 1.0 for a in cell["availability"])
        assert cell["availability_min"] <= cell["availability_mean"]
        assert cell["keys"] == PARAMS.catalog_size
        assert cell["graceful_handoffs"] > 0
        assert cell["live_final"] < N_PEERS

    def test_graceful_beats_abrupt(self):
        graceful = run_scenario_cell(CONFIG, "graceful_leave", "hieras", PARAMS)
        abrupt = run_scenario_cell(CONFIG, "abrupt_crash", "hieras", PARAMS)
        assert graceful["loss_probability"] <= abrupt["loss_probability"]
        assert graceful["stretch_mean"] < abrupt["stretch_mean"]

    def test_flash_join_rebalances(self):
        cell = run_scenario_cell(CONFIG, "flash_join", "chord", PARAMS)
        assert cell["rebalanced"] > 0
        assert cell["initial_live"] < N_PEERS
        assert cell["live_final"] == N_PEERS

    def test_zero_probe_cell_has_no_series_and_builds_no_twin(self, monkeypatch):
        builds = []

        def counting_build(config):
            builds.append(config)
            return build_bundle(config)

        monkeypatch.setattr(scenario_runner, "build_bundle", counting_build)
        cell = run_scenario_cell(
            CONFIG, "abrupt_crash", "hieras", dataclasses.replace(PARAMS, n_probes=0)
        )
        assert len(builds) == 1
        assert cell["availability"] == [] and cell["stretch_timeline"] == []
        assert cell["probes_per_tick"] == 0.0 and cell["stretch_samples"] == 0.0
        assert (cell["availability_mean"], cell["stretch_mean"]) == (0.0, -1.0)
        assert (cell["recovery_ms"], cell["recovered"]) == (-1.0, 0.0)
        # The client load is still served, and counted per tick.
        n_ticks = int(PARAMS.duration_ms // PARAMS.probe_interval_ms)
        assert len(cell["gets_total_timeline"]) == n_ticks
        assert cell["gets"] == sum(cell["gets_total_timeline"]) > 0
        run_scenario_cell(CONFIG, "abrupt_crash", "hieras", PARAMS)
        assert len(builds) == 3

    def test_a_request_fails_when_no_peer_is_servable(self, monkeypatch):
        def everyone_down(bundle, params):
            return CompiledScenario(
                name="everyone_down",
                duration_ms=3.0,
                plan=FaultPlan(seed=1).crash_peers(at_ms=1.0, peers=range(N_PEERS)),
                requests=(
                    Request("get", 0.5, source=5, name="k"),
                    Request("get", 2.0, source=5, name="k"),
                ),
            )

        monkeypatch.setitem(SCENARIOS, "everyone_down", everyone_down)
        params = dataclasses.replace(PARAMS, probe_interval_ms=1.0, n_probes=2)
        cell = run_scenario_cell(CONFIG, "everyone_down", "chord", params)
        # The first get is served before the crash; the second finds no
        # peer to send from and fails without reaching the store.
        assert cell["gets_total_timeline"] == [1.0, 1.0, 0.0]
        assert cell["gets_ok_timeline"] == [0.0, 0.0, 0.0]  # "k" was never written
        assert (cell["gets"], cell["get_successes"]) == (1.0, 1.0)
        assert cell["availability"] == [0.0] * 3 and cell["crashed_final"] == N_PEERS

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            run_scenario_cell(CONFIG, "nope", "chord", PARAMS)
        with pytest.raises(ValueError):
            run_scenario_cell(CONFIG, "graceful_leave", "pastry", PARAMS)


class TestGracefulLeave:
    """Satellite: announced departure hands data off before disks drop."""

    def test_graceful_leave_preserves_bare_data(self, bundle):
        leavers = list(range(0, N_PEERS, 3))

        def survivors_loss(graceful: bool) -> float:
            net = build_bundle(CONFIG).chord
            store = ReplicatedStore(net, ReplicationPolicy(replicas=0))
            net.attach_store(store)
            for i in range(24):
                store.seed_key(f"k-{i}", i)
            net.remove_peers(leavers, graceful=graceful)
            return store.loss_audit()["loss_probability"]

        assert survivors_loss(graceful=True) == 0.0
        assert survivors_loss(graceful=False) > 0.0


class TestRebindPeers:
    """Satellite: offline HIERAS peers can re-enter under new ring names."""

    def test_rebind_moves_peer_to_new_ring(self):
        net = build_bundle(CONFIG).hieras
        layer = net.depth
        rings = net.rings_at_layer(layer)
        peer = 5
        old = next(n for n, r in sorted(rings.items()) if peer in set(r.peers))
        new = next(n for n in sorted(rings) if n != old)
        net.remove_peers([peer])
        net.rebind_peers([peer], [[new]])
        net.revive_peers([peer])
        after = net.rings_at_layer(layer)
        assert peer in set(after[new].peers)
        assert peer not in set(after[old].peers)

    def test_rebind_rejects_alive_peers_and_bad_shapes(self):
        net = build_bundle(CONFIG).hieras
        with pytest.raises(ValueError):
            net.rebind_peers([0], [["anything"]])  # still alive
        net.remove_peers([0])
        with pytest.raises(ValueError):
            net.rebind_peers([0], [])  # shape mismatch
        with pytest.raises(ValueError):
            net.rebind_peers([0], [["a", "b"]])  # depth-1 names required


class TestBench:
    def test_bench_document_and_gates(self):
        doc = run_bench(seed=7, scenarios=("regional_failure",))
        cells = doc["metrics"]["scenarios"]["regional_failure"]
        assert set(cells) == {"chord", "hieras"}
        for cell in cells.values():
            assert cell["notes"]["ring_size"] > 0
            assert cell["crashed_final"] == cell["notes"]["ring_size"]
        # The gates are a claim of the report, so every runner of the
        # experiment fails on a violation — and says which.
        assert not check_gates(doc) and "[DIVERGES]" not in report(doc)
        cells["hieras"]["availability_min"] = 0.1
        violation = "regional_failure/hieras: availability_min=0.1000 below floor 0.4"
        assert check_gates(doc) == [violation]
        assert "[DIVERGES] all pinned regional regression gates hold" in report(doc)
        assert f"VIOLATED {violation}" in report(doc)

    def test_check_gates_flags_regressions(self):
        doc = {
            "metrics": {
                "scenarios": {
                    "regional_failure": {
                        "hieras": {
                            "availability_min": 0.1,
                            "availability_final": 1.0,
                            "recovery_ms": -1.0,
                            "loss_probability": 0.9,
                        },
                        "chord": {
                            "availability_min": 0.9,
                            "recovery_ms": 100.0,
                            "loss_probability": 0.0,
                        },
                    }
                }
            }
        }
        violations = check_gates(doc)
        assert any("below floor" in v for v in violations)
        assert any("never re-crossed" in v for v in violations)
        assert any("above ceiling" in v for v in violations)

    def test_check_gates_reports_missing_cells(self):
        violations = check_gates({"metrics": {"scenarios": {}}})
        assert violations and all("missing" in v for v in violations)
