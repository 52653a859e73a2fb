"""Tests for the scenario suite (``repro.scenarios``)."""

import json

import pytest

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.experiments.scenarios_exp import check_gates, report, run_bench
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.scenarios import (
    SCENARIOS,
    ScenarioParams,
    recovery_time_ms,
    run_scenario_cell,
    scenario_names,
    series_summary,
)
from repro.scenarios.library import (
    compile_abrupt_crash,
    compile_graceful_leave,
    compile_regional_failure,
)

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
            times = [w.time_ms for w in compiled.waves]
            assert times == sorted(times)
            assert compiled.duration_ms == PARAMS.duration_ms

    def test_compilation_is_deterministic(self, bundle):
        for name in scenario_names():
            a = SCENARIOS[name](bundle, PARAMS)
            b = SCENARIOS[name](build_bundle(CONFIG), PARAMS)
            assert a.plan.events(N_PEERS) == b.plan.events(N_PEERS)
            assert a.waves == b.waves
            assert a.initial_offline == b.initial_offline
            assert a.notes == b.notes

    def test_departure_pair_shares_the_cohort(self, bundle):
        graceful = compile_graceful_leave(bundle, PARAMS)
        abrupt = compile_abrupt_crash(bundle, PARAMS)
        crash = [e for e in abrupt.plan.events(N_PEERS) if e.kind == "crash"][0]
        assert graceful.waves[0].peers == crash.peers
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

    def test_landmark_waves_carry_ring_names(self, bundle):
        compiled = SCENARIOS["landmark_outage_rolling"](bundle, PARAMS)
        rebinds = [w for w in compiled.waves if w.kind == "rebind_revive"]
        assert rebinds
        for wave in rebinds:
            assert len(wave.ring_names) == len(wave.peers)
            for names in wave.ring_names:
                assert len(names) == CONFIG.depth - 1


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
