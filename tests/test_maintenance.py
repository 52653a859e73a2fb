"""Tests for the §3.4 cost model and failure handling."""

import numpy as np
import pytest

from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.core.maintenance import (
    maintenance_traffic_cost,
    measured_state_cost,
    state_cost_model,
)
from repro.util.ids import IdSpace


class TestStateCostModel:
    def test_chord_case_is_log(self):
        cost = state_cost_model(10_000, depth=1, successor_list_len=16)
        assert cost.finger_entries == pytest.approx(np.log2(10_000), abs=0.1)
        assert cost.successor_entries == 16
        assert cost.ring_table_entries == 0.0

    def test_depth_increases_state_sublinearly(self):
        d1 = state_cost_model(10_000, depth=1).total_entries
        d2 = state_cost_model(10_000, depth=2).total_entries
        d3 = state_cost_model(10_000, depth=3).total_entries
        assert d1 < d2 < d3
        assert d3 < 3 * d1 + 40

    def test_paper_claim_hundreds_of_bytes(self):
        """§3.4: multi-layer finger tables occupy 'only hundred or
        thousands of bytes'."""
        cost = state_cost_model(10_000, depth=3, successor_list_len=16)
        assert cost.total_bytes < 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            state_cost_model(0, 2)
        with pytest.raises(ValueError):
            state_cost_model(10, 0)


def build_hieras(n=150, depth=2, seed=1, latency=None):
    rng = np.random.default_rng(seed)
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, rng)
    distances = rng.uniform(0, 300, size=(n, 4))
    orders = BinningScheme.default_for_depth(max(depth, 2)).orders(distances)
    return HierasNetwork(space, ids, landmark_orders=orders, depth=depth, latency=latency)


class TestMeasuredCost:
    def test_measured_close_to_model_shape(self):
        net = build_hieras(n=200, depth=2)
        measured = measured_state_cost(net, sample=32)
        assert measured.finger_entries > np.log2(200) - 2
        assert measured.total_bytes > 0

    def test_traffic_cost_low_layer_cheaper(self, small_networks):
        _, hieras = small_networks
        costs = maintenance_traffic_cost(hieras, sample=48)
        assert costs["layer2_mean_ping_ms"] < costs["layer1_mean_ping_ms"]
