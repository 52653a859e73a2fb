"""Tests for experiment-registry internals and misc public surface."""

import repro
from repro.experiments import figures
from repro.experiments.config import SimConfig
from repro.experiments.runner import sample_pair


def _sizes(full: bool, model: str) -> list[int]:
    """The sizes the Fig 2/3 grid runs for one topology model."""
    return [c.n_peers for c in figures._grid("size", full, 1).cells() if c.model == model]


class TestHelpers:
    def test_claim_format(self):
        assert figures._claim(True, "yes").strip() == "[ok] yes"
        assert figures._claim(False, "no").strip() == "[DIVERGES] no"

    def test_requests_scales(self):
        assert figures._grid("size", True, 1).n_requests > figures._grid("size", False, 1).n_requests

    def test_sizes_full_vs_reduced(self):
        assert _sizes(True, "ts") == list(range(1000, 10_001, 1000))
        assert _sizes(False, "ts") == [1000, 2000, 3000, 4000]

    def test_sizes_inet_floor(self):
        for full in (True, False):
            for size in _sizes(full, "inet"):
                assert size * 1.25 >= 3000

    def test_pair_caches(self):
        config = SimConfig(n_peers=200, seed=3)
        a = sample_pair(config, 200)
        b = sample_pair(config, 200)
        assert a is b  # exact same tuple from the cache
        c = sample_pair(config, 300)
        assert c is not a


class TestDistConfig:
    def test_reduced_vs_full_scale(self):
        assert figures._cell("dist", False, 1)[0].n_peers == 4000
        assert figures._cell("dist", True, 1)[0].n_peers == 10_000

    def test_landmark_configs(self):
        reduced, full = (figures._grid("landmarks", f, 1) for f in (False, True))
        counts, (n,) = reduced.landmarks, reduced.sizes
        assert 2 in counts and 12 in counts
        full_counts, (full_n,) = full.landmarks, full.sizes
        assert full_n > n
        assert len(full_counts) >= len(counts)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_public_names(self):
        assert hasattr(repro, "quick_network")
        assert hasattr(repro, "NetworkBundle")

    def test_dht_package_exports(self):
        import repro.dht as dht

        for name in dht.__all__:
            assert hasattr(dht, name), name

    def test_core_package_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_analysis_package_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_topology_package_exports(self):
        import repro.topology as topology

        for name in topology.__all__:
            assert hasattr(topology, name), name

    def test_sim_package_exports(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert hasattr(sim, name), name


class TestJoinCostMeasurement:
    def test_join_rows_shape(self):
        rows = figures._measure_join_costs(seed=1)
        assert [r["variant"] for r in rows] == ["chord", "hieras"]
        for row in rows:
            assert row["msgs_per_join"] >= 0

    def test_hieras_join_costs_more(self):
        """§3.4: HIERAS 'needs more operations ... when a node joins'."""
        rows = figures._measure_join_costs(seed=2)
        by = {r["variant"]: r["msgs_per_join"] for r in rows}
        assert by["hieras"] > by["chord"]
