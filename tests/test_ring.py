"""Tests for ring names/ids, ring tables, and the directory."""

import numpy as np
import pytest

from repro.core.ring import (
    RingTable,
    RingTableDirectory,
    ring_id,
    ring_name,
)
from repro.util.ids import IdSpace
from repro.util.intervals import ring_distance


class TestNamesAndIds:
    def test_ring_name_identity(self):
        assert ring_name("012") == "012"

    def test_ring_name_rejects_empty(self):
        with pytest.raises(ValueError):
            ring_name("")

    def test_ring_id_deterministic_and_in_space(self):
        space = IdSpace(16)
        rid = ring_id(space, "012")
        assert rid == ring_id(space, "012")
        assert 0 <= rid < space.size

    def test_ring_id_differs_from_key_hash(self):
        space = IdSpace(32)
        assert ring_id(space, "012") != space.hash_key("012")


class TestRingTable:
    def test_extremes(self):
        space = IdSpace(16)
        ids = np.asarray([5, 17, 200, 900], dtype=np.uint64)
        peers = np.asarray([3, 1, 0, 2])
        table = RingTable.from_members(space, "01", ids, peers)
        assert table.largest == (900, 2)
        assert table.second_largest == (200, 0)
        assert table.smallest == (5, 3)
        assert table.second_smallest == (17, 1)
        assert table.ringname == "01"
        assert table.ringid == ring_id(space, "01")

    def test_small_rings_repeat_entries(self):
        space = IdSpace(16)
        table = RingTable.from_members(
            space, "0", np.asarray([7], dtype=np.uint64), np.asarray([4])
        )
        assert table.largest == table.smallest == (7, 4)
        assert table.second_largest == table.second_smallest == (7, 4)


class TestDirectory:
    @pytest.fixture()
    def directory(self):
        return RingTableDirectory(IdSpace(16))

    def test_publish_and_fetch(self, directory):
        table = directory.publish(
            "01", np.asarray([3, 9], dtype=np.uint64), np.asarray([0, 1])
        )
        assert table == RingTable.from_members(
            IdSpace(16), "01", np.asarray([3, 9], dtype=np.uint64), np.asarray([0, 1])
        )
        assert directory.names() == ["01"]

    def test_drop(self, directory):
        directory.publish("01", np.asarray([3], dtype=np.uint64), np.asarray([0]))
        directory.drop("01")
        assert directory.names() == []

    def test_host_is_numerically_closest(self, directory):
        space = IdSpace(16)
        rng = np.random.default_rng(2)
        ids = np.sort(space.sample_unique_ids(40, rng))
        peers = np.arange(40)
        host = directory.host_of("012", ids, peers)
        rid = ring_id(space, "012")
        dists = [ring_distance(rid, int(i), space.size) for i in ids]
        assert dists[host] == min(dists)  # peer index == sorted position here
