"""Tests for landmark sets (§2.3)."""

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.core.landmarks import LandmarkSet


class TestBasics:
    def test_measure_shape(self, small_topology, small_latency):
        lms = LandmarkSet(routers=small_topology.stub_routers[:4])
        nodes = small_topology.stub_routers[10:30]
        d = lms.measure(small_latency, nodes)
        assert d.shape == (20, 4)

    def test_measure_matches_model(self, small_topology, small_latency):
        lms = LandmarkSet(routers=small_topology.stub_routers[:2])
        nodes = small_topology.stub_routers[5:8]
        d = lms.measure(small_latency, nodes)
        assert d[0, 0] == small_latency.pair(
            int(nodes[0]), int(small_topology.stub_routers[0])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet(routers=np.asarray([], dtype=np.int64))


class TestFailures:
    def test_failed_landmark_excluded(self, small_topology, small_latency):
        lms = LandmarkSet(routers=small_topology.stub_routers[:4])
        lms.alive[2] = False
        d = lms.measure(small_latency, small_topology.stub_routers[10:15])
        assert d.shape == (5, 3)

    def test_binning_after_failure_drops_column(self, small_topology, small_latency):
        """End-to-end §2.3: orders computed from the survivors equal
        the original orders with the failed column dropped."""
        lms = LandmarkSet(routers=small_topology.stub_routers[:4])
        nodes = small_topology.stub_routers[20:60]
        scheme = BinningScheme.paper_for_depth(2)
        before = scheme.orders(lms.measure(small_latency, nodes))
        dropped = before.drop_landmark(1)
        lms.alive[1] = False
        after = scheme.orders(lms.measure(small_latency, nodes))
        for i in range(len(nodes)):
            assert after.order_of(i) == dropped.order_of(i)


class TestLogicalLandmarks:
    def test_distance_is_group_minimum(self, small_topology, small_latency):
        groups = [small_topology.stub_routers[:3], small_topology.stub_routers[3:5]]
        lms = LandmarkSet.logical(groups)
        nodes = small_topology.stub_routers[10:12]
        d = lms.measure(small_latency, nodes)
        for i, node in enumerate(nodes):
            expected = min(
                small_latency.pair(int(node), int(m)) for m in groups[0]
            )
            assert d[i, 0] == expected

    def test_group_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet.logical([np.asarray([], dtype=np.int64)])

    def test_member_arrays_have_explicit_dtype(self):
        # PERF003 regression: members built from plain python lists must
        # not widen to the platform default; the SoA contract is int64.
        lms = LandmarkSet.logical([[1, 2, 3], [4, 5]])
        assert all(m.dtype == np.int64 for m in lms.members)
