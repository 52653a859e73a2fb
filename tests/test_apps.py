"""Tests for the file-sharing application layer."""

import numpy as np
import pytest

from repro.apps.filesharing import FileSharingSystem
from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.util.ids import IdSpace


def make_hieras(n=80, seed=1):
    rng = np.random.default_rng(seed)
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, rng)
    orders = BinningScheme.paper_for_depth(2).orders(
        rng.uniform(0, 300, size=(n, 4))
    )
    return HierasNetwork(space, ids, landmark_orders=orders, depth=2)


def make_chord(n=80, seed=1):
    rng = np.random.default_rng(seed)
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, rng)
    return ChordNetwork(space, ids)


class TestQuietService:
    def test_all_queries_succeed_without_churn(self):
        system = FileSharingSystem(make_hieras(), catalog_size=200, seed=2)
        metrics = system.run_round(queries=150)
        assert metrics.success_rate == 1.0
        assert metrics.mean_hops > 0
        assert metrics.online_peers == 80

    def test_over_chord_too(self):
        system = FileSharingSystem(make_chord(), catalog_size=200, seed=2)
        metrics = system.run_round(queries=100)
        assert metrics.success_rate == 1.0

    def test_popular_files_dominate_queries(self):
        system = FileSharingSystem(
            make_chord(), catalog_size=100, zipf_exponent=1.2, seed=3
        )
        # Popularity weights are strongly skewed.
        assert system.popularity[0] > 10 * system.popularity[-1]


class TestChurnedService:
    def test_replication_survives_moderate_churn(self):
        system = FileSharingSystem(
            make_hieras(n=100, seed=4), catalog_size=300, replicas=2, seed=5
        )
        rounds = system.run(6, queries_per_round=100, churn_per_round=3)
        summary = system.summary()
        assert summary["availability"] > 0.97
        assert summary["total_repair_moves"] >= 0
        assert len(rounds) == 6

    def test_no_replication_loses_data_under_churn(self):
        """With replicas=0, crashed owners take their keys with them —
        availability must visibly drop (the point of replication)."""
        lossy = FileSharingSystem(
            make_hieras(n=60, seed=6), catalog_size=300, replicas=0, seed=7
        )
        replicated = FileSharingSystem(
            make_hieras(n=60, seed=6), catalog_size=300, replicas=2, seed=7
        )
        for system in (lossy, replicated):
            system.run(5, queries_per_round=120, churn_per_round=4)
        assert (
            lossy.summary()["availability"]
            < replicated.summary()["availability"]
        )

    def test_rejoining_peers_reenter_their_rings(self):
        net = make_hieras(n=60, seed=8)
        system = FileSharingSystem(net, catalog_size=50, seed=9)
        before = {p: net.ring_name_of(p, 2) for p in range(60)}
        system.run_round(queries=10, fail=5)
        system.run_round(queries=10, rejoin=5)
        assert net.n_peers == 60
        for p in range(60):
            assert net.ring_name_of(p, 2) == before[p]

    def test_population_bounded(self):
        system = FileSharingSystem(make_hieras(n=30, seed=10), catalog_size=50, seed=11)
        for _ in range(10):
            system.run_round(queries=5, fail=10)  # capped: never below 4 peers
        assert len(system.online_peers) >= 4

    def test_history_and_summary(self):
        system = FileSharingSystem(make_chord(n=40, seed=12), catalog_size=50, seed=13)
        with pytest.raises(ValueError):
            system.summary()
        system.run(3, queries_per_round=20)
        assert len(system.history) == 3
        assert system.summary()["rounds"] == 3.0


@pytest.mark.parametrize("make", [make_chord, make_hieras], ids=["chord", "hieras"])
def test_rerun_is_identical(make):
    """Same seed, same history: no iteration-order leak in the store path."""
    histories = []
    for _ in range(2):
        system = FileSharingSystem(make(n=60, seed=14), catalog_size=120, seed=15)
        system.run(4, queries_per_round=60, churn_per_round=3)
        histories.append(system.history)
    assert histories[0] == histories[1]
    assert sum(m.keys_moved_by_repair for m in histories[0]) > 0
