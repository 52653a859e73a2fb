"""Tests for the open-loop load generator (``repro.loadgen``)."""

import json

import numpy as np
import pytest

from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.loadgen import (
    SLOReport,
    WorkloadMix,
    catalog_names,
    constant_rate,
    diurnal,
    flash_crowd,
    generate,
    ramp,
)
from repro.metrics.registry import Histogram
from repro.serve import DHTService, ServiceConfig


class TestSchedules:
    def test_constant_rate_mass(self):
        sched = constant_rate(100.0, 10_000.0)
        assert sched.cumulative()[1][-1] == pytest.approx(1000.0)

    def test_flash_crowd_mass_is_exact(self):
        sched = flash_crowd(
            100.0, 10_000.0, spike_at_ms=2000.0, spike_duration_ms=1000.0,
            spike_factor=8.0,
        )
        # 9 s at base + 1 s at 8x base.
        assert sched.cumulative()[1][-1] == pytest.approx(900.0 + 800.0)

    def test_ramp_mass_is_exact(self):
        sched = ramp(0.0, 200.0, 10_000.0)
        assert sched.cumulative()[1][-1] == pytest.approx(1000.0)

    def test_diurnal_full_period_averages_out(self):
        sched = diurnal(100.0, 60_000.0, amplitude=0.8, period_ms=60_000.0)
        # The sinusoid integrates to zero over a full period.
        assert sched.cumulative()[1][-1] == pytest.approx(6000.0, rel=1e-6)

    def test_arrivals_sorted_and_in_window(self):
        for sched in (
            constant_rate(200.0, 5000.0),
            diurnal(200.0, 5000.0, amplitude=0.5, period_ms=5000.0),
            flash_crowd(100.0, 5000.0, spike_at_ms=1000.0, spike_duration_ms=500.0),
            ramp(50.0, 400.0, 5000.0),
        ):
            times = sched.arrival_times(7)
            assert np.all(np.diff(times) >= 0.0)
            assert times.size == 0 or (times[0] >= 0.0 and times[-1] <= 5000.0)

    def test_fluid_jitter_matches_mass_exactly(self):
        sched = constant_rate(100.0, 10_000.0)
        times = sched.arrival_times(jitter="none")
        assert times.size == 1000
        # Fluid arrivals at a constant rate are evenly spaced.
        gaps = np.diff(times)
        assert np.allclose(gaps, gaps[0])

    def test_poisson_count_near_mass(self):
        sched = constant_rate(500.0, 10_000.0)
        n = sched.arrival_times(11).size
        assert abs(n - 5000) < 5 * np.sqrt(5000)

    def test_flash_concentrates_arrivals(self):
        sched = flash_crowd(
            100.0, 10_000.0, spike_at_ms=4000.0, spike_duration_ms=1000.0,
            spike_factor=8.0,
        )
        times = sched.arrival_times(3)
        in_spike = np.sum((times >= 4000.0) & (times < 5000.0))
        # The 10% spike window carries ~47% of the offered mass.
        assert in_spike / times.size > 0.35

    def test_zero_rate_produces_nothing(self):
        assert constant_rate(0.0, 1000.0).arrival_times(5).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_rate(-1.0, 1000.0)
        with pytest.raises(ValueError):
            constant_rate(1.0, 0.0)
        with pytest.raises(ValueError):
            diurnal(1.0, 1000.0, amplitude=2.0)
        with pytest.raises(ValueError):
            flash_crowd(1.0, 1000.0, spike_at_ms=0.0, spike_duration_ms=0.0)
        with pytest.raises(ValueError):
            constant_rate(1.0, 1000.0).arrival_times(0, jitter="gamma")


class TestWorkload:
    def test_mix_validation(self):
        with pytest.raises(ValueError):
            WorkloadMix(read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadMix(catalog_size=0)

    def test_catalog_names_rank_ordered(self):
        names = catalog_names(WorkloadMix(catalog_size=3, name_prefix="f"))
        assert names == ["f-1", "f-2", "f-3"]

    def test_read_fraction_respected(self):
        mix = WorkloadMix(read_fraction=0.75, catalog_size=32)
        arrivals = constant_rate(400.0, 10_000.0).arrival_times(5)
        reqs = generate(mix, arrivals, np.arange(50), seed=9)
        reads = sum(r.op == "get" for r in reqs)
        assert abs(reads / len(reqs) - 0.75) < 0.05

    def test_zipf_skews_key_popularity(self):
        mix = WorkloadMix(catalog_size=64, zipf_exponent=0.95)
        arrivals = constant_rate(400.0, 10_000.0).arrival_times(5)
        reqs = generate(mix, arrivals, np.arange(50), seed=9)
        hottest = sum(r.name == "key-1" for r in reqs)
        coldest = sum(r.name == "key-64" for r in reqs)
        assert hottest > 5 * max(coldest, 1)

    def test_requests_sorted_and_valid(self):
        mix = WorkloadMix()
        arrivals = constant_rate(100.0, 2000.0).arrival_times(1)
        reqs = generate(mix, arrivals, np.arange(10), seed=2)
        assert all(a.at_ms <= b.at_ms for a, b in zip(reqs, reqs[1:]))
        assert all(0 <= r.source < 10 for r in reqs)
        put_values = [r.value for r in reqs if r.op == "put"]
        assert len(set(put_values)) == len(put_values)

    def test_empty_arrivals(self):
        assert generate(WorkloadMix(), np.empty(0), np.arange(4), seed=0) == []

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            generate(WorkloadMix(), np.asarray([1.0]), np.empty(0, dtype=np.int64))


class TestByteDeterminism:
    def test_same_seed_same_arrival_bytes(self):
        sched = flash_crowd(
            300.0, 8000.0, spike_at_ms=2000.0, spike_duration_ms=1000.0
        )
        a = sched.arrival_times(123)
        b = sched.arrival_times(123)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != sched.arrival_times(124).tobytes()

    def test_same_seed_same_requests(self):
        mix = WorkloadMix(catalog_size=16)
        arrivals = constant_rate(200.0, 3000.0).arrival_times(7)
        pool = np.arange(20)
        assert generate(mix, arrivals, pool, seed=5) == generate(mix, arrivals, pool, seed=5)

    def test_same_seed_same_slo_summary_bytes(self):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=80, n_landmarks=4, depth=2, seed=42)
        )
        mix = WorkloadMix(catalog_size=16)
        sched = constant_rate(300.0, 3000.0)
        pool = np.arange(80)

        def run() -> str:
            reqs = generate(mix, sched.arrival_times(42), pool, seed=43)
            result = DHTService(bundle.hieras, config=ServiceConfig()).run(reqs)
            report = SLOReport.from_result(
                result, offered_per_s=300.0, duration_ms=3000.0
            )
            return json.dumps(report.as_dict(), sort_keys=True)

        assert run() == run()


class TestSLOReport:
    @pytest.fixture(scope="class")
    def report(self):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=80, n_landmarks=4, depth=2, seed=42)
        )
        mix = WorkloadMix(catalog_size=16)
        reqs = generate(
            mix, constant_rate(300.0, 3000.0).arrival_times(42), np.arange(80), seed=43
        )
        result = DHTService(bundle.hieras).run(reqs)
        return SLOReport.from_result(result, offered_per_s=300.0, duration_ms=3000.0)

    def test_counts_are_consistent(self, report):
        assert report.arrivals == report.served + report.rejected + report.shed + report.failed
        assert report.goodput_fraction == pytest.approx(report.served / report.arrivals)

    def test_phases_present_with_quantiles(self, report):
        for label in ("total", "queue_wait", "service", "route", "fanout", "get_total"):
            row = report.phases[label]
            assert set(row) == {"count", "mean", "p50", "p99", "p999", "max"}
            assert row["p50"] <= row["p99"] <= row["p999"] <= row["max"] or row["count"] == 0

    def test_total_dominates_components(self, report):
        assert report.phases["total"]["p99"] >= report.phases["route"]["p99"]

    def test_as_dict_round_trips_json(self, report):
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["arrivals"] == report.arrivals


class TestHistogramQuantileAccuracy:
    """p50/p99/p999 from log buckets vs exact np.quantile.

    The serving layer's SLO numbers ride on ``Histogram.quantile``; for
    base 1.1 the bucket midpoint is within half a bucket (~5%) of any
    value in the bucket, so estimates must land within one log-bucket
    of the exact empirical quantile — including on adversarial
    (bimodal, heavy-tailed, near-constant) latency shapes.
    """

    @pytest.mark.parametrize(
        "name,values",
        [
            ("uniform", np.linspace(0.1, 1000.0, 5001)),
            ("lognormal", np.exp(np.linspace(-2, 8, 4001))),
            ("bimodal", np.concatenate([np.full(900, 2.0), np.full(100, 5000.0)])),
            ("near_constant", np.full(1000, 123.4)),
            ("heavy_tail", 1.0 / np.linspace(1e-4, 1.0, 2000) ** 1.5),
            ("with_zeros", np.concatenate([np.zeros(50), np.linspace(1.0, 99.0, 950)])),
        ],
    )
    def test_within_one_log_bucket(self, name, values):
        hist = Histogram(name, base=1.1)
        hist.record_many(values)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            estimate = hist.quantile(q)
            if exact == 0.0:
                assert estimate == 0.0
                continue
            # One log-bucket tolerance: the estimate and the exact value
            # lie within a factor of the bucket width (base) of each other.
            assert estimate <= exact * hist.base * 1.0001, (name, q)
            assert estimate >= exact / hist.base * 0.9999, (name, q)

    def test_quantile_monotone_in_q(self):
        rng = np.random.default_rng(5)
        hist = Histogram("mono", base=1.1)
        hist.record_many(rng.exponential(50.0, size=3000))
        qs = [hist.quantile(q) for q in np.linspace(0.0, 1.0, 21)]
        assert qs == sorted(qs)
