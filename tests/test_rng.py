"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import RngFactory, make_rng, spawn_rngs


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_none_means_seed_zero(self):
        assert make_rng(None).integers(0, 10**9) == make_rng(0).integers(0, 10**9)

    def test_passthrough_generator(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g


class TestSpawn:
    def test_count(self):
        assert len(spawn_rngs(3, 5)) == 5

    def test_streams_independent(self):
        a, b = spawn_rngs(3, 2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_reproducible(self):
        x = [g.integers(0, 10**9) for g in spawn_rngs(3, 3)]
        y = [g.integers(0, 10**9) for g in spawn_rngs(3, 3)]
        assert x == y


class TestRngFactory:
    def test_same_label_same_stream(self):
        f = RngFactory(42)
        assert f.get("a").integers(0, 10**9) == f.get("a").integers(0, 10**9)

    def test_labels_independent(self):
        f = RngFactory(42)
        assert f.get("a").integers(0, 10**9) != f.get("b").integers(0, 10**9)

    def test_seed_changes_streams(self):
        a = RngFactory(1).get("x").integers(0, 10**9)
        b = RngFactory(2).get("x").integers(0, 10**9)
        assert a != b

    def test_child_namespacing(self):
        f = RngFactory(42)
        c1 = f.child("exp1").get("x").integers(0, 10**9)
        c2 = f.child("exp2").get("x").integers(0, 10**9)
        assert c1 != c2

    def test_child_deterministic(self):
        a = RngFactory(42).child("e").get("x").integers(0, 10**9)
        b = RngFactory(42).child("e").get("x").integers(0, 10**9)
        assert a == b

    def test_many_streams(self):
        f = RngFactory(9)
        values = [g.integers(0, 10**9) for g in f.many("pool", 4)]
        assert len(set(values)) == 4

    def test_many_reproducible(self):
        f = RngFactory(9)
        a = [g.integers(0, 10**9) for g in f.many("pool", 3)]
        b = [g.integers(0, 10**9) for g in f.many("pool", 3)]
        assert a == b


def test_cross_platform_stability():
    """Pin a few values: seeded streams must never drift across releases
    (every recorded experiment depends on it)."""
    g = make_rng(0)
    assert int(g.integers(0, 2**32)) == 3653403231


def test_validation_helpers():
    from repro.util.validation import require, require_in_range, require_positive

    require(True, "fine")
    with pytest.raises(ValueError, match="boom"):
        require(False, "boom")
    require_positive(1.5)
    with pytest.raises(ValueError):
        require_positive(0)
    require_in_range(5, 0, 10)
    with pytest.raises(ValueError):
        require_in_range(11, 0, 10, name="x")
