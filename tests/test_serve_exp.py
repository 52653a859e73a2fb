"""Tests for the saturation experiment (``repro.experiments.serve_exp``).

The envelope, reproducibility and writer checks every bench shares live
in ``tests/test_bench.py``.
"""

import json

import pytest

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.experiments.serve_exp import mixed_capacity_per_s, run_bench, run_serve_cell
from repro.loadgen import WorkloadMix
from repro.serve import ServiceConfig

N_PEERS = 100
DURATION_MS = 1500.0


@pytest.fixture(scope="module")
def bundle():
    return build_bundle(
        SimConfig(model="ts", n_peers=N_PEERS, n_landmarks=4, depth=2, seed=42)
    )


def run_cell(bundle, **overrides):
    kwargs = dict(
        stack="hieras",
        rate_per_s=200.0,
        duration_ms=DURATION_MS,
        mix=WorkloadMix(catalog_size=16),
        service=ServiceConfig(),
        seed=42,
    )
    kwargs.update(overrides)
    return run_serve_cell(bundle, **kwargs)


class TestCapacityModel:
    def test_coalesced_beats_scalar(self):
        cfg = ServiceConfig()
        batched = mixed_capacity_per_s(cfg, 0.75)
        scalar = mixed_capacity_per_s(cfg, 0.75, coalesced=False)
        assert batched > 2 * scalar

    def test_pure_read_matches_config_property(self):
        """Pure reads at the default costs: 4 workers, each lookup paying
        0.5 ms plus the 5 ms dispatch overhead, whole or split 32 ways."""
        cfg = ServiceConfig()
        assert mixed_capacity_per_s(cfg, 1.0) == pytest.approx(4000.0 / (5.0 / 32 + 0.5))
        assert mixed_capacity_per_s(cfg, 1.0, coalesced=False) == pytest.approx(4000.0 / 5.5)


class TestServeCell:
    def test_underloaded_cell_serves_everything(self, bundle):
        cell = run_cell(bundle)
        assert cell["rejected"] == 0 and cell["failed"] == 0
        assert cell["achieved_per_s"] == pytest.approx(
            1000.0 * cell["served"] / cell["makespan_ms"]
        )

    def test_overload_plateaus_at_model_capacity(self, bundle):
        cfg = ServiceConfig(max_batch=1)
        cell = run_cell(bundle, rate_per_s=2000.0, service=cfg)
        capacity = mixed_capacity_per_s(cfg, 0.75, coalesced=False)
        assert cell["achieved_per_s"] < 1.1 * capacity
        assert cell["achieved_per_s"] > 0.8 * capacity

    def test_flash_cell_spikes_queue(self, bundle):
        calm = run_cell(bundle, rate_per_s=300.0)
        flashed = run_cell(bundle, rate_per_s=300.0, schedule_kind="flash")
        assert flashed["max_queue_depth"] > calm["max_queue_depth"]

    def test_membership_cell_restores_network(self, bundle):
        before = int(bundle.hieras.n_peers)
        cell = run_cell(bundle, membership=True)
        assert int(bundle.hieras.n_peers) == before
        assert cell["leave_peers"] > 0
        assert cell["join_peers"] == cell["leave_peers"]
        assert cell["failed"] == 0

    def test_cells_are_deterministic(self, bundle):
        a = run_cell(bundle, rate_per_s=400.0)
        b = run_cell(bundle, rate_per_s=400.0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestBenchDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_bench(
            seed=42,
            n_peers=N_PEERS,
            duration_ms=DURATION_MS,
            rates=(200.0, 1600.0, 2400.0),
        )

    def test_schema_and_shape(self, doc):
        assert set(doc["metrics"]) == {"sweep", "flash", "coalescing", "churn", "headline"}
        assert len(doc["metrics"]["sweep"]) == 6  # 3 rates x 2 stacks

    def test_phases_are_wall_times(self, doc):
        assert all(
            "wall_ms" in p for name, p in doc["phases"].items() if name != "peak_rss"
        )
        assert doc["phases"]["peak_rss"]["peak_rss_mb"] > 0.0

    def test_knee_shift_present_for_both_stacks(self, doc):
        shift = doc["metrics"]["headline"]["knee_shift"]
        for stack in ("chord", "hieras"):
            pair = shift[stack]
            assert pair["batched_achieved_per_s"] > pair["scalar_achieved_per_s"]

    def test_admission_bounds_tail(self, doc):
        for row in doc["metrics"]["headline"]["admission"].values():
            assert row["bounded_queue_p99_ms"] <= row["unbounded_queue_p99_ms"]
            assert row["rejected"] > 0


class TestRegistryEntry:
    def test_saturation_registered(self):
        from repro.experiments.figures import EXPERIMENTS

        assert "saturation" in EXPERIMENTS
