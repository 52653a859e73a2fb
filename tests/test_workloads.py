"""Tests for request traces and churn schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ids import IdSpace
from repro.workloads.churn import generate_churn
from repro.workloads.requests import RequestTrace, generate_requests, zipf_weights


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(100).sum() == pytest.approx(1.0)

    def test_decreasing(self):
        w = zipf_weights(50, exponent=1.0)
        assert np.all(np.diff(w) < 0)

    def test_exponent_controls_skew(self):
        flat = zipf_weights(100, exponent=0.2)
        skewed = zipf_weights(100, exponent=1.5)
        assert skewed[0] > flat[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, exponent=0)


class TestRequestTrace:
    def test_uniform_shape_and_ranges(self):
        space = IdSpace(16)
        trace = generate_requests(1000, 50, space, seed=1)
        assert len(trace) == 1000
        assert trace.sources.max() < 50
        assert int(trace.keys.max()) < space.size

    def test_deterministic(self):
        space = IdSpace(16)
        a = generate_requests(100, 10, space, seed=2)
        b = generate_requests(100, 10, space, seed=2)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.sources, b.sources)

    def test_zipf_concentrates_keys(self):
        space = IdSpace(32)
        trace = generate_requests(
            5000, 10, space, seed=3, key_dist="zipf", catalog_size=1000
        )
        _, counts = np.unique(trace.keys, return_counts=True)
        # Zipf: the most popular key appears far more than the average.
        assert counts.max() > 10 * counts.mean()

    def test_zipf_keys_from_catalog(self):
        space = IdSpace(32)
        catalog = {space.hash_key(f"file-{i}") for i in range(50)}
        trace = generate_requests(
            200, 10, space, seed=4, key_dist="zipf", catalog_size=50
        )
        assert set(int(k) for k in trace.keys) <= catalog

    def test_iteration(self):
        space = IdSpace(16)
        trace = generate_requests(10, 5, space, seed=5)
        pairs = list(trace)
        assert len(pairs) == 10
        assert all(isinstance(s, int) and isinstance(k, int) for s, k in pairs)

    def test_validation(self):
        space = IdSpace(16)
        with pytest.raises(ValueError):
            generate_requests(0, 5, space)
        with pytest.raises(ValueError, match="n_requests must be an integer >= 1, got 2.5"):
            generate_requests(2.5, 5, space)
        with pytest.raises(ValueError, match="n_peers must be an integer >= 1, got 2.5"):
            generate_requests(5, 2.5, space)
        with pytest.raises(ValueError, match="catalog_size must be an integer >= 1, got 2.5"):
            generate_requests(5, 5, space, key_dist="zipf", catalog_size=2.5)
        with pytest.raises(ValueError):
            generate_requests(5, 5, space, key_dist="bogus")
        with pytest.raises(ValueError):
            RequestTrace(np.zeros(3), np.zeros(4))


class TestChurn:
    def test_events_sorted_by_time(self):
        sched = generate_churn(
            universe=50, initial=20, duration_ms=60_000,
            mean_session_ms=20_000, mean_offline_ms=20_000, seed=1,
        )
        times = [e.time_ms for e in sched.events]
        assert times == sorted(times)

    def test_initial_peers(self):
        sched = generate_churn(
            universe=50, initial=20, duration_ms=10_000,
            mean_session_ms=5_000, mean_offline_ms=5_000, seed=2,
        )
        assert sched.initial_peers == tuple(range(20))

    def test_per_peer_alternation(self):
        """A peer's events must alternate join/departure, starting with
        a departure if initially online, a join otherwise."""
        sched = generate_churn(
            universe=30, initial=10, duration_ms=200_000,
            mean_session_ms=10_000, mean_offline_ms=10_000, seed=3,
        )
        for peer in range(30):
            actions = [e.action for e in sched.events if e.peer == peer]
            online = peer < 10
            for action in actions:
                if online:
                    assert action in ("leave", "fail")
                else:
                    assert action == "join"
                online = not online

    def test_fail_fraction_extremes(self):
        all_fail = generate_churn(
            universe=30, initial=30, duration_ms=100_000,
            mean_session_ms=10_000, mean_offline_ms=10_000,
            fail_fraction=1.0, seed=4,
        )
        assert all(e.action == "fail" for e in all_fail.events if e.action != "join")
        none_fail = generate_churn(
            universe=30, initial=30, duration_ms=100_000,
            mean_session_ms=10_000, mean_offline_ms=10_000,
            fail_fraction=0.0, seed=4,
        )
        assert all(e.action == "leave" for e in none_fail.events if e.action != "join")

    def test_deterministic(self):
        kw = dict(
            universe=20, initial=10, duration_ms=50_000,
            mean_session_ms=8_000, mean_offline_ms=8_000, seed=5,
        )
        assert generate_churn(**kw).events == generate_churn(**kw).events

    def test_whole_schedule_identical_per_seed(self):
        """Same seed ⇒ the full ChurnSchedule (events, initial peers,
        universe) compares equal — fault experiments replay it on both
        stacks and rely on exact identity."""
        kw = dict(
            universe=25, initial=12, duration_ms=80_000,
            mean_session_ms=9_000, mean_offline_ms=7_000,
            fail_fraction=0.3,
        )
        a = generate_churn(seed=9, **kw)
        b = generate_churn(seed=9, **kw)
        assert a == b
        assert generate_churn(seed=10, **kw).events != a.events

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_across_seeds(self, seed):
        kw = dict(
            universe=12, initial=6, duration_ms=40_000,
            mean_session_ms=6_000, mean_offline_ms=6_000, seed=seed,
        )
        assert generate_churn(**kw).events == generate_churn(**kw).events

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_events_within_duration(self, seed):
        sched = generate_churn(
            universe=10, initial=5, duration_ms=30_000,
            mean_session_ms=5_000, mean_offline_ms=5_000, seed=seed,
        )
        assert all(0 < e.time_ms < 30_000 for e in sched.events)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_churn(
                universe=1, initial=1, duration_ms=1000,
                mean_session_ms=10, mean_offline_ms=10,
            )
        with pytest.raises(ValueError):
            generate_churn(
                universe=10, initial=0, duration_ms=1000,
                mean_session_ms=10, mean_offline_ms=10,
            )
        with pytest.raises(ValueError):
            generate_churn(
                universe=10, initial=5, duration_ms=1000,
                mean_session_ms=10, mean_offline_ms=10, fail_fraction=2.0,
            )
