"""Property and unit tests for circular-interval arithmetic."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.intervals import (
    clockwise_distance,
    in_interval,
    in_interval_open,
    ring_distance,
)

SIZE = 256
ids = st.integers(min_value=0, max_value=SIZE - 1)


class TestClockwiseDistance:
    def test_zero_for_same(self):
        assert clockwise_distance(5, 5, SIZE) == 0

    def test_forward(self):
        assert clockwise_distance(5, 10, SIZE) == 5

    def test_wraps(self):
        assert clockwise_distance(250, 3, SIZE) == 9

    @given(ids, ids)
    def test_range(self, a, b):
        assert 0 <= clockwise_distance(a, b, SIZE) < SIZE

    @given(ids, ids)
    def test_antisymmetry(self, a, b):
        d1 = clockwise_distance(a, b, SIZE)
        d2 = clockwise_distance(b, a, SIZE)
        assert (d1 + d2) % SIZE == 0


class TestRingDistance:
    def test_shortest_side(self):
        assert ring_distance(0, 255, SIZE) == 1
        assert ring_distance(0, 128, SIZE) == 128

    @given(ids, ids)
    def test_symmetric(self, a, b):
        assert ring_distance(a, b, SIZE) == ring_distance(b, a, SIZE)

    @given(ids, ids)
    def test_bounded_by_half(self, a, b):
        assert ring_distance(a, b, SIZE) <= SIZE // 2


class TestInInterval:
    def test_half_open_basics(self):
        assert in_interval(5, 1, 10, SIZE)
        assert in_interval(10, 1, 10, SIZE)  # closed at b
        assert not in_interval(1, 1, 10, SIZE)  # open at a
        assert not in_interval(11, 1, 10, SIZE)

    def test_wrapping(self):
        assert in_interval(2, 250, 10, SIZE)
        assert in_interval(255, 250, 10, SIZE)
        assert not in_interval(100, 250, 10, SIZE)

    def test_degenerate_full_ring(self):
        # a == b means the full ring for the half-open arc.
        assert in_interval(42, 7, 7, SIZE)
        assert in_interval(7, 7, 7, SIZE)

    def test_open_excludes_both_ends(self):
        assert not in_interval_open(1, 1, 10, SIZE)
        assert not in_interval_open(10, 1, 10, SIZE)
        assert in_interval_open(2, 1, 10, SIZE)

    def test_open_degenerate(self):
        assert in_interval_open(8, 7, 7, SIZE)
        assert not in_interval_open(7, 7, 7, SIZE)

    @given(ids, ids, ids)
    def test_half_open_equals_definition(self, x, a, b):
        # x in (a, b] iff walking clockwise from a reaches x before
        # passing b (and x != a).
        expected = (
            a != b
            and 0 < clockwise_distance(a, x, SIZE) <= clockwise_distance(a, b, SIZE)
        ) or (a == b)
        assert in_interval(x, a, b, SIZE) == expected

    @given(ids, ids, ids)
    def test_open_implies_half_open(self, x, a, b):
        if in_interval_open(x, a, b, SIZE):
            assert in_interval(x, a, b, SIZE)

    @given(ids, ids, ids)
    def test_partition(self, x, a, b):
        # For a != b, every x is in exactly one of (a, b] and (b, a].
        if a != b:
            assert in_interval(x, a, b, SIZE) != in_interval(x, b, a, SIZE)

    @given(ids, ids)
    def test_complement_sizes(self, a, b):
        if a != b:
            count_ab = sum(in_interval(x, a, b, SIZE) for x in range(SIZE))
            assert count_ab == clockwise_distance(a, b, SIZE)
