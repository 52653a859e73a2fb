"""Unit and property tests for repro.util.ids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ids import DEFAULT_BITS, IdSpace, sha1_int


class TestSha1Int:
    def test_deterministic(self):
        assert sha1_int("abc") == sha1_int("abc")

    def test_str_and_bytes_agree(self):
        assert sha1_int("abc") == sha1_int(b"abc")

    def test_respects_bits(self):
        for bits in (1, 8, 16, 32, 64, 160):
            assert 0 <= sha1_int("x", bits) < (1 << bits)

    def test_different_inputs_differ(self):
        assert sha1_int("a", 64) != sha1_int("b", 64)

    def test_truncation_is_prefix(self):
        # The 32-bit id is the top half of the 64-bit id.
        assert sha1_int("key", 64) >> 32 == sha1_int("key", 32)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            sha1_int("x", 0)
        with pytest.raises(ValueError):
            sha1_int("x", 161)

    @given(st.text(max_size=64))
    def test_range_property(self, s):
        assert 0 <= sha1_int(s, 20) < (1 << 20)


class TestIdSpace:
    def test_default_bits(self):
        assert IdSpace().bits == DEFAULT_BITS

    def test_size(self):
        assert IdSpace(bits=8).size == 256

    def test_wrap(self):
        space = IdSpace(bits=8)
        assert space.wrap(256) == 0
        assert space.wrap(257) == 1
        assert space.wrap(255) == 255

    def test_finger_start(self):
        space = IdSpace(bits=8)
        assert space.finger_start(121, 1) == 122
        assert space.finger_start(121, 2) == 123
        assert space.finger_start(121, 8) == (121 + 128) % 256

    def test_finger_start_paper_table2(self):
        # Paper Table 2: node 121 in a 2**8 space has finger starts
        # 122, 123, 125, 129, 137, 153, 185, 249.
        space = IdSpace(bits=8)
        starts = [space.finger_start(121, i) for i in range(1, 9)]
        assert starts == [122, 123, 125, 129, 137, 153, 185, 249]

    def test_finger_start_bounds(self):
        space = IdSpace(bits=8)
        with pytest.raises(ValueError):
            space.finger_start(0, 0)
        with pytest.raises(ValueError):
            space.finger_start(0, 9)

    def test_hash_key_in_range(self):
        space = IdSpace(bits=12)
        assert 0 <= space.hash_key("file.txt") < space.size

    def test_validate_id(self):
        space = IdSpace(bits=8)
        assert space.validate_id(255) == 255
        with pytest.raises(ValueError):
            space.validate_id(256)
        with pytest.raises(ValueError):
            space.validate_id(-1)


class TestSampling:
    def test_unique_and_in_range(self, rng):
        space = IdSpace(bits=16)
        ids = space.sample_unique_ids(1000, rng)
        assert len(np.unique(ids)) == 1000
        assert int(ids.max()) < space.size

    def test_not_sorted(self, rng):
        # Sorted output would correlate with other per-peer attributes;
        # the sampler promises random order (see docstring).
        space = IdSpace(bits=32)
        ids = space.sample_unique_ids(500, rng)
        assert not np.all(ids[1:] >= ids[:-1])

    def test_deterministic_per_seed(self):
        space = IdSpace(bits=32)
        a = space.sample_unique_ids(100, np.random.default_rng(5))
        b = space.sample_unique_ids(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_exhaustive_space(self, rng):
        space = IdSpace(bits=4)
        ids = space.sample_unique_ids(16, rng)
        assert sorted(ids.tolist()) == list(range(16))

    def test_zero_count(self, rng):
        assert len(IdSpace(bits=8).sample_unique_ids(0, rng)) == 0

    def test_too_many_raises(self, rng):
        with pytest.raises(ValueError):
            IdSpace(bits=4).sample_unique_ids(17, rng)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_sample_property(self, count, seed):
        space = IdSpace(bits=16)
        ids = space.sample_unique_ids(count, np.random.default_rng(seed))
        assert len(set(ids.tolist())) == count
