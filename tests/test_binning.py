"""Tests for the distributed binning scheme."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.binning import (
    DEFAULT_LEVELS,
    REFERENCE_SCALE_MS,
    BinningScheme,
    _digits,
    landmark_scale_ms,
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
        return BinningScheme.paper_for_depth(3).orders(PAPER_DISTANCES)

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


def _row_unique_orders(scheme: BinningScheme, distances: np.ndarray):
    """``(name_pools, codes_per_layer)`` binned with row-wise ``np.unique``
    (the rule before packed keys): the reference for :meth:`BinningScheme.orders`."""
    pools, codes_per_layer = [], []
    for k, boundaries in enumerate(scheme.level_boundaries):
        rows, codes = np.unique(quantise_levels(distances, boundaries), axis=0, return_inverse=True)
        names = [_digits(row) for row in rows]
        if k:
            pairs, codes = np.unique(
                np.stack([codes_per_layer[-1], codes.reshape(-1)], axis=1), axis=0, return_inverse=True
            )
            names = [f"{pools[-1][p]}/{names[d]}" for p, d in pairs.tolist()]
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int64)
        rank[order] = np.arange(len(names))
        pools.append([names[i] for i in order])
        codes_per_layer.append(rank[codes.reshape(-1)])
    return pools, codes_per_layer


class TestPackedKeys:
    """Binning on packed integer keys ≡ binning on row-wise ``np.unique``."""

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_codes_and_pools_match_row_unique(self, depth, n_landmarks, n_nodes, seed):
        """Depth 4's 12 levels name rings with dots; dropping a landmark re-bins."""
        rng = np.random.default_rng(seed)
        distances = rng.choice([0.0, 5.0, 20.0, 100.0, 300.0, 1000.0], (n_nodes, n_landmarks))
        distances += rng.uniform(0.0, 40.0, distances.shape).round()
        scheme = BinningScheme.paper_for_depth(depth)
        got = scheme.orders(distances)
        pools, codes = _row_unique_orders(scheme, distances)
        assert got.name_pools == pools
        for a, b in zip(got.codes_per_layer, codes, strict=True):
            np.testing.assert_array_equal(a, b)
        if n_landmarks > 1 and n_nodes:
            dropped = got.drop_landmark(int(rng.integers(0, n_landmarks)))
            pools, codes = _row_unique_orders(scheme, dropped.distances)
            assert dropped.name_pools == pools
            for a, b in zip(dropped.codes_per_layer, codes, strict=True):
                np.testing.assert_array_equal(a, b)

    def test_a_key_wider_than_int64_is_reranked(self):
        """65 two-level landmarks need 65 bits: unchecked, ``[1, 0, …, 0]``
        would pack to 2⁶⁴ ≡ 0 and share all-zeros' ring.  Re-ranked, it does not."""
        scheme = BinningScheme(((50.0,),))
        distances = np.zeros((4, 65))
        distances[1, 0] = distances[2, -1] = distances[3] = 100.0
        got = scheme.orders(distances)
        pools, codes = _row_unique_orders(scheme, distances)
        assert got.name_pools == pools and len(pools[0]) == 4
        np.testing.assert_array_equal(got.codes_per_layer[0], codes[0])
        deep = BinningScheme.paper_for_depth(4)  # up to 12 levels: 108 bits for 30 landmarks
        many = np.random.default_rng(5).choice([3.0, 60.0, 400.0], (500, 30))
        got = deep.orders(many)
        pools, codes = _row_unique_orders(deep, many)
        assert got.name_pools == pools
        for a, b in zip(got.codes_per_layer, codes, strict=True):
            np.testing.assert_array_equal(a, b)


def _scaled(distances: np.ndarray, depth: int):
    """Orders under the paper's levels scaled to the landmarks' median, floor or not."""
    scheme = BinningScheme.paper_for_depth(depth).scaled(landmark_scale_ms(distances), REFERENCE_SCALE_MS)
    return scheme.orders(distances)


def _assert_same_orders(a, b):
    assert a.name_pools == b.name_pools
    for codes_a, codes_b in zip(a.codes_per_layer, b.codes_per_layer, strict=True):
        np.testing.assert_array_equal(codes_a, codes_b)


class TestLandmarkScale:
    def test_median_of_landmark_medians(self):
        # Landmark medians: 42.5, 79.0, 21.0, 30.0 → their median 36.25.
        assert landmark_scale_ms(PAPER_DISTANCES) == 36.25

    def test_scaled_multiplies_every_layer(self):
        scheme = BinningScheme.default_for_depth(3).scaled(2.0)
        assert scheme.level_boundaries == tuple(
            tuple(2.0 * b for b in bounds) for bounds in DEFAULT_LEVELS[:2]
        )

    def test_reference_scale_keeps_the_paper_levels(self):
        assert BinningScheme.default_for_depth(4).scaled(1.0) == BinningScheme.paper_for_depth(4)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_default_bins_with_the_paper_levels_scaled_to_the_landmarks(self, depth):
        distances = np.random.default_rng(depth).uniform(0, 900, size=(500, 4))
        deployed = BinningScheme.default_for_depth(depth).orders(distances)
        scale = landmark_scale_ms(distances)
        absolute = BinningScheme.paper_for_depth(depth).scaled(scale, REFERENCE_SCALE_MS)
        assert deployed.scheme == absolute and deployed.scheme.reference_ms is None
        assert deployed.name_pools == absolute.orders(distances).name_pools
        # Re-binning through the orders' scheme keeps the deployment's scale.
        rebinned = deployed.scheme.orders(distances[:20])
        assert rebinned.names(0).tolist() == deployed.names(0)[:20].tolist()

    @pytest.mark.parametrize("reference", [0.0, -5.0, np.nan, np.inf])
    def test_rejects_a_bad_reference(self, reference):
        with pytest.raises(ValueError, match="reference_ms must be finite and > 0"):
            BinningScheme(DEFAULT_LEVELS[:1], reference_ms=reference)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_rejects_a_degenerate_landmark_median(self, bad):
        distances = np.asarray([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        distances[:, 1] = bad
        with pytest.raises(ValueError, match="median delay must be finite and > 0"):
            landmark_scale_ms(distances)

    def test_rejects_an_inf_median_from_a_majority_of_inf_pings(self):
        distances = np.asarray([[10.0, np.inf], [30.0, np.inf], [50.0, 5.0]])
        with pytest.raises(ValueError, match="median delay"):
            landmark_scale_ms(distances)

    @pytest.mark.parametrize("bad", [np.empty((0, 3)), np.ones(4)])
    def test_rejects_a_bad_shape(self, bad):
        with pytest.raises(ValueError, match="n_nodes, n_landmarks"):
            landmark_scale_ms(bad)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    def test_scaled_rejects_a_bad_factor(self, factor):
        with pytest.raises(ValueError, match="factor must be finite and > 0"):
            BinningScheme.default_for_depth(2).scaled(factor)

    @settings(max_examples=60, deadline=None)
    @given(
        pings=st.lists(
            st.lists(st.integers(1, 2000), min_size=3, max_size=3), min_size=1, max_size=40
        ),
        depth=st.integers(2, 4),
        k=st.one_of(st.integers(1, 1000), st.integers(-20, 20).map(lambda e: 2.0**e)),
    )
    # Two delays exactly on a boundary that a divided-first factor rounded off it.
    @example(
        pings=[[1, 1, 185], [1, 1, 185], [1, 185, 1], [1, 1, 185], [1, 185, 627], [14, 296, 2], [1, 374, 14]],
        depth=3,
        k=3,
    )
    @example(
        pings=[[1, 1, 185], [1, 96, 185], [1, 274, 1], [1, 274, 185], [1, 274, 185], [1, 296, 1]],
        depth=3,
        k=3,
    )
    def test_scaling_every_distance_leaves_the_scaled_orders_unchanged(self, pings, depth, k):
        """The scaled rule is unit-free: multiplying every delay by k > 0
        moves the scale by k too.  ``k`` is an integer (integer pings keep
        the products exact) or a power of two (exact on any float), so a
        tie between a delay and a boundary survives the product."""
        distances = np.asarray(pings, dtype=np.float64)
        _assert_same_orders(_scaled(distances * k, depth), _scaled(distances, depth))

    @settings(max_examples=60, deadline=None)
    @given(
        pings=st.lists(
            st.lists(st.integers(125, 4000), min_size=3, max_size=3), min_size=1, max_size=40
        ),
        depth=st.integers(2, 4),
        k=st.one_of(st.integers(1, 1000), st.integers(0, 20).map(lambda e: 2.0**e)),
    )
    def test_the_deployment_rule_is_unit_free_above_the_reference(self, pings, depth, k):
        """Every landmark median ≥ the reference scale: the default scheme
        is the scaled rule, so the same invariance holds for it."""
        distances = np.asarray(pings, dtype=np.float64)
        deployed = BinningScheme.default_for_depth(depth)
        _assert_same_orders(deployed.orders(distances * k), deployed.orders(distances))
        _assert_same_orders(deployed.orders(distances), _scaled(distances, depth))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_the_paper_levels_are_the_floor(self, depth):
        """Below the reference scale the deployment bins with the paper's
        own boundaries: the rule only ever widens them."""
        distances = np.random.default_rng(depth).uniform(0, 150, size=(200, 4))
        assert landmark_scale_ms(distances) < REFERENCE_SCALE_MS
        deployed = BinningScheme.default_for_depth(depth).orders(distances)
        assert deployed.scheme == BinningScheme.paper_for_depth(depth)
        _assert_same_orders(deployed, BinningScheme.paper_for_depth(depth).orders(distances))
