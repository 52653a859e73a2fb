"""Tests for the distributed binning scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import (
    DEFAULT_LEVELS,
    BinningScheme,
    quantise_levels,
)

PAPER_DISTANCES = np.asarray(
    [
        [25, 5, 30, 100],
        [40, 18, 12, 200],
        [100, 180, 5, 10],
        [160, 220, 8, 20],
        [45, 10, 100, 5],
        [20, 140, 50, 40],
    ],
    dtype=np.float64,
)
PAPER_ORDERS = ["1012", "1002", "2200", "2200", "1020", "0211"]


class TestQuantiseLevels:
    def test_paper_table1_every_cell(self):
        levels = quantise_levels(PAPER_DISTANCES.ravel(), (20.0, 100.0))
        digits = "".join(str(int(v)) for v in levels)
        assert digits == "".join(PAPER_ORDERS)

    def test_boundary_cases_match_paper(self):
        # 20 ms -> level 0 (node F); 100 ms -> level 2 (nodes A, C, E).
        out = quantise_levels(np.asarray([20.0, 100.0]), (20.0, 100.0))
        assert out.tolist() == [0, 2]

    def test_interior(self):
        out = quantise_levels(np.asarray([0.0, 19.9, 20.1, 99.9, 100.1, 1e6]), (20.0, 100.0))
        assert out.tolist() == [0, 0, 1, 1, 2, 2]

    def test_more_boundaries(self):
        bounds = (10.0, 20.0, 50.0)
        out = quantise_levels(np.asarray([5, 15, 30, 49, 50, 60]), bounds)
        assert out.tolist() == [0, 1, 2, 2, 3, 3]

    @given(st.floats(min_value=0, max_value=1e4, allow_nan=False))
    def test_level_in_range(self, x):
        level = int(quantise_levels(np.asarray([x]), (20.0, 100.0))[0])
        assert 0 <= level <= 2

    @given(
        st.lists(st.floats(min_value=0, max_value=1e4), min_size=2, max_size=2).map(sorted)
    )
    def test_monotone_in_distance(self, pair):
        lo, hi = pair
        levels = quantise_levels(np.asarray([lo, hi]), (20.0, 100.0))
        assert levels[0] <= levels[1]

    @pytest.mark.parametrize("bad", [np.nan, -5.0, -np.inf])
    def test_negative_and_nan_distances_are_rejected(self, bad):
        """Neither lands in a plausible level (NaN used to reach the top,
        a negative ping level 0); ``orders`` inherits the check."""
        with pytest.raises(ValueError, match="distances must be >= 0"):
            quantise_levels(np.asarray([3.0, bad]), (20.0, 100.0))
        with pytest.raises(ValueError, match="distances must be >= 0"):
            BinningScheme().orders(np.array([[bad, 5.0], [3.0, 4.0]]))

    def test_infinity_is_the_top_level(self):
        assert quantise_levels(np.asarray([np.inf, 0.0]), (20.0, 100.0)).tolist() == [2, 0]


class TestBinningScheme:
    def test_default_levels_refine(self):
        for prev, nxt in zip(DEFAULT_LEVELS, DEFAULT_LEVELS[1:]):
            assert set(prev).issubset(set(nxt))

    def test_default_for_depth(self):
        assert len(BinningScheme.default_for_depth(2).level_boundaries) == 1
        assert len(BinningScheme.default_for_depth(4).level_boundaries) == 3
        with pytest.raises(ValueError):
            BinningScheme.default_for_depth(1)
        with pytest.raises(ValueError):
            BinningScheme.default_for_depth(5)

    def test_rejects_non_refining(self):
        with pytest.raises(ValueError, match="refine"):
            BinningScheme(((20.0, 100.0), (30.0, 100.0)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BinningScheme(((100.0, 20.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinningScheme(())


class TestLandmarkOrders:
    @pytest.fixture()
    def orders3(self):
        return BinningScheme.default_for_depth(3).orders(PAPER_DISTANCES)

    def test_paper_orders(self, orders3):
        assert [orders3.order_of(i) for i in range(6)] == PAPER_ORDERS

    def test_dimensions(self, orders3):
        assert orders3.n_nodes == 6
        assert orders3.n_landmarks == 4
        assert orders3.depth == 3

    def test_deeper_names_nest(self, orders3):
        for i in range(6):
            child = orders3.order_of(i, layer_index=1)
            parent = orders3.order_of(i, layer_index=0)
            assert child.startswith(parent + "/")

    def test_nesting_invariant_rings(self, orders3):
        """Nodes sharing a layer-3 ring must share the layer-2 ring."""
        codes2, _ = (orders3.codes_per_layer[0], orders3.name_pools[0])
        codes3, _ = (orders3.codes_per_layer[1], orders3.name_pools[1])
        for a in range(6):
            for b in range(6):
                if codes3[a] == codes3[b]:
                    assert codes2[a] == codes2[b]

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_nesting_property_random(self, seed, n_nodes, n_landmarks):
        rng = np.random.default_rng(seed)
        distances = rng.uniform(0, 400, size=(n_nodes, n_landmarks))
        orders = BinningScheme.default_for_depth(4).orders(distances)
        for layer in (1, 2):
            shallow, _ = (orders.codes_per_layer[layer - 1], orders.name_pools[layer - 1])
            deep, _ = (orders.codes_per_layer[layer], orders.name_pools[layer])
            for a in range(n_nodes):
                for b in range(n_nodes):
                    if deep[a] == deep[b]:
                        assert shallow[a] == shallow[b]

    def test_ring_codes_factorisation(self, orders3):
        codes, names = (orders3.codes_per_layer[0], orders3.name_pools[0])
        assert sorted(set(names)) == sorted(names)
        for i in range(6):
            assert names[codes[i]] == orders3.order_of(i)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_codes_are_numbered_in_name_order(self, depth):
        """Each pool is its layer's distinct names, sorted, and the stored
        codes are what factorising the per-node names gives."""
        distances = np.random.default_rng(depth).uniform(0, 400, size=(300, 6))
        orders = BinningScheme.default_for_depth(depth).orders(distances)
        for k in range(depth - 1):
            pool, inverse = np.unique(orders.names(k), return_inverse=True)
            assert orders.name_pools[k] == pool.tolist()
            assert np.array_equal(orders.codes_per_layer[k], inverse)

    def test_dotted_names_are_numbered_in_name_order(self):
        """Level rows sort as numbers, dotted names as strings: row
        [1, 0] < [9, 0] < [10, 0] < [11, 0], but "10" < "10.0" < "11.0" < "90"."""
        scheme = BinningScheme((tuple(float(b) for b in range(1, 16)),))
        orders = scheme.orders(np.asarray([[9.5, 0.5], [10.5, 0.5], [1.5, 0.5], [11.5, 0.5]]))
        assert orders.name_pools[0] == ["10", "10.0", "11.0", "90"]
        assert orders.codes_per_layer[0].tolist() == [3, 1, 0, 2]

    def test_drop_landmark(self, orders3):
        dropped = orders3.drop_landmark(3)
        assert dropped.n_landmarks == 3
        # Without L4, A's order loses its final digit.
        assert dropped.order_of(0) == "101"

    def test_drop_landmark_bounds(self, orders3):
        with pytest.raises(ValueError):
            orders3.drop_landmark(4)

    def test_drop_last_landmark_rejected(self):
        orders = BinningScheme.default_for_depth(2).orders(np.asarray([[5.0], [30.0]]))
        with pytest.raises(ValueError):
            orders.drop_landmark(0)

    def test_landmark_failure_merges_rings_only(self, orders3):
        """Dropping a landmark can only merge rings, never split them —
        survivors of a shared ring still share all remaining digits."""
        codes_before, _ = (orders3.codes_per_layer[0], orders3.name_pools[0])
        dropped = orders3.drop_landmark(1)
        codes_after, _ = (dropped.codes_per_layer[0], dropped.name_pools[0])
        for a in range(6):
            for b in range(6):
                if codes_before[a] == codes_before[b]:
                    assert codes_after[a] == codes_after[b]

    def test_table1_rows_layout(self, orders3):
        rows = orders3.table1_rows(labels=list("ABCDEF"))
        assert rows[0]["node"] == "A"
        assert rows[0]["order"] == "1012"
        assert rows[0]["dist_l2_ms"] == 5.0

    def test_many_levels_use_dot_separator(self):
        bounds = tuple(float(b) for b in range(1, 16))
        scheme = BinningScheme((bounds,))
        orders = scheme.orders(np.asarray([[100.0, 3.0]]))
        assert "." in orders.order_of(0)

    def test_rejects_bad_distance_shape(self):
        with pytest.raises(ValueError):
            BinningScheme.default_for_depth(2).orders(np.asarray([1.0, 2.0]))
