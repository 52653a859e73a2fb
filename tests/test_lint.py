"""Fixtures for the DET001 and DET002 source scans.

The scans live in ``tests/test_source_contracts.py``; these are their
positive fixtures and the known false positives that must stay silent.
"""

import pytest

from tests.test_source_contracts import rules

CORE = "repro.core._fixture"
DHT = "repro.dht._fixture"
SIM = "repro.sim._fixture"
EXPERIMENTS = "repro.experiments._fixture"
ANALYSIS = "repro.analysis._fixture"
RNG_MODULE = "repro.util.rng"
TESTS = "tests.test_fixture"


# ----------------------------------------------------------------------
# DET001 — randomness through repro.util.rng only
# ----------------------------------------------------------------------
class TestRngChecker:
    def test_flags_direct_default_rng_in_src(self):
        assert rules("import numpy as np\nrng = np.random.default_rng(3)\n", CORE) == ["DET001"]

    def test_flags_stdlib_random_import(self):
        assert rules("import random\n", CORE) == ["DET001"]
        assert rules("from random import choice\n", CORE) == ["DET001"]

    def test_flags_global_seed_and_legacy_api(self):
        assert rules("import numpy as np\nnp.random.seed(0)\n", CORE) == ["DET001"]
        assert rules("import numpy as np\nx = np.random.rand(3)\n", CORE) == ["DET001"]

    def test_rng_module_itself_is_exempt(self):
        assert rules("import numpy as np\nrng = np.random.default_rng(0)\n", RNG_MODULE) == []

    def test_make_rng_stays_silent(self):
        assert rules("from repro.util.rng import make_rng\nrng = make_rng(7)\n", CORE) == []

    def test_tests_may_seed_explicitly_but_not_draw_entropy(self):
        assert rules("import numpy as np\nrng = np.random.default_rng(42)\n", TESTS) == []
        assert rules("import numpy as np\nrng = np.random.default_rng()\n", TESTS) == ["DET001"]
        assert rules("import random\n", TESTS) == ["DET001"]


# ----------------------------------------------------------------------
# DET002 — no wall-clock in the deterministic stacks
# ----------------------------------------------------------------------
class TestWallClockChecker:
    @pytest.mark.parametrize(
        "call", ["time.time()", "time.perf_counter()", "time.monotonic_ns()"]
    )
    def test_flags_time_calls_in_scope(self, call):
        assert rules(f"import time\nt = {call}\n", SIM) == ["DET002"]

    def test_flags_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules(src, DHT) == ["DET002"]

    def test_experiments_are_in_scope(self):
        assert rules("import time\nt = time.perf_counter()\n", EXPERIMENTS) == ["DET002"]

    def test_out_of_scope_modules_stay_silent(self):
        assert rules("import time\nt = time.perf_counter()\n", ANALYSIS) == []

    def test_simulated_time_stays_silent(self):
        assert rules("def f(sim):\n    return sim.now\n", SIM) == []
