"""Tests for the cache-effect experiment pipeline (``BENCH_cache.json``).

Small-scale runs of :func:`repro.experiments.cache_exp.run_bench`:
document shape, paired-baseline reductions, churn/staleness cells.  The
envelope, reproducibility and writer checks every bench shares live in
``tests/test_bench.py``.
"""

import pytest

from repro.cache import CachePolicy
from repro.experiments.cache_exp import (
    HEADLINE_CAPACITY,
    HEADLINE_EXPONENT,
    make_zipf_trace,
    run_bench,
    run_cache_cell,
)
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle

SMALL = dict(
    seed=7,
    n_peers=200,
    n_requests=800,
    catalog_size=300,
    capacities=(HEADLINE_CAPACITY,),
    exponents=(HEADLINE_EXPONENT,),
    churn_fraction=0.1,
)


class TestRunCacheCell:
    def test_cell_accounting(self):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=150, n_landmarks=4, depth=2, seed=3)
        )
        trace = make_zipf_trace(
            bundle, 400, catalog_size=100, zipf_exponent=1.0
        )
        cell = run_cache_cell(
            bundle, trace, stack="chord", policy=CachePolicy(capacity=32)
        )
        assert cell["attempted"] == 400.0
        assert cell["success_rate"] == 1.0
        assert cell["cache_lookups"] == 400.0
        assert cell["cache_hits"] + cell["cache_misses"] == 400.0
        assert 0.0 < cell["cache_hit_rate"] < 1.0
        assert cell["load_total_served"] == 400.0

    def test_uncached_baseline_has_no_cache_activity(self):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=150, n_landmarks=4, depth=2, seed=3)
        )
        trace = make_zipf_trace(
            bundle, 300, catalog_size=100, zipf_exponent=1.0
        )
        base = run_cache_cell(
            bundle, trace, stack="hieras", policy=CachePolicy(capacity=0)
        )
        assert base["cache_hits"] == 0.0
        assert base["cache_insertions"] == 0.0
        assert base["mean_hops"] > 0.0


class TestRunBenchCache:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_bench(**SMALL)

    def test_document_shape(self, doc):
        assert doc["config"]["n_peers"] == 200
        metrics = doc["metrics"]
        assert set(metrics) == {"cells", "headline"}
        # 1 baseline + 1 cached + 3 churn cells, per stack.
        assert len(metrics["cells"]) == 10
        assert {c["stack"] for c in metrics["cells"]} == {"chord", "hieras"}
        assert set(metrics["headline"]) == {"chord", "hieras"}

    def test_cached_cells_reduce_hops_and_latency(self, doc):
        for cell in doc["metrics"]["cells"]:
            if cell["churn_fraction"] == 0.0 and cell["capacity"] > 0:
                assert cell["hop_reduction_percent"] > 0.0
                assert cell["latency_reduction_percent"] > 0.0
                assert cell["cache_hit_rate"] > 0.0

    def test_headline_spreads_owner_load(self, doc):
        for stack in ("chord", "hieras"):
            head = doc["metrics"]["headline"][stack]
            assert head["cached_concentration"] < head["uncached_concentration"]
            assert head["cached_max_served"] < head["uncached_max_served"]

    def test_churn_cells_detect_staleness(self, doc):
        churn = [
            c for c in doc["metrics"]["cells"]
            if c["churn_fraction"] > 0.0 and c["capacity"] > 0
        ]
        assert len(churn) == 4  # (lru + ttl-lru) x 2 stacks
        assert all(not c["cache_values"] for c in churn)  # shortcut-only
        assert all(c["success_rate"] > 0.95 for c in churn)
        assert sum(c["cache_stale_evictions"] for c in churn) > 0
        ttl = [c for c in churn if c["eviction"] == "ttl-lru"]
        assert len(ttl) == 2
        assert sum(c["cache_expirations"] for c in ttl) > 0


class TestExperimentRegistration:
    def test_cache_effect_registered(self):
        from repro.experiments.figures import EXPERIMENTS

        exp = EXPERIMENTS["cache_effect"]
        assert "cach" in exp.title.lower()
        assert "20%" in exp.paper_claim or ">=20" in exp.paper_claim
