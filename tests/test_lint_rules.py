"""Fixtures for the PERF001, FLT001, FRZ001 and EXC001 source scans.

The scans live in ``tests/test_source_contracts.py``; these are their
positive fixtures, the known false positives that must stay silent, and
the looser scope of test-grade code (``benchmarks``/``examples``).
"""

from tests.test_source_contracts import rules

CORE = "repro.core._fixture"
DHT = "repro.dht._fixture"
SIM = "repro.sim._fixture"
ANALYSIS = "repro.analysis._fixture"
TESTS = "tests.test_fixture"
EXAMPLES = "examples.demo_fixture"
BENCHMARKS = "benchmarks.bench_fixture"


# ----------------------------------------------------------------------
# PERF001 — no per-element record allocation on hot paths
# ----------------------------------------------------------------------
class TestLoopAllocation:
    def test_flags_record_construction_in_for_loop(self):
        src = """
        def build(peers):
            out = []
            for p in peers:
                out.append(FingerEntry(p))
            return out
        """
        assert rules(src, DHT) == ["PERF001"]

    def test_flags_record_construction_in_comprehension(self):
        src = """
        def build(peers):
            return [PeerInfo(p) for p in peers]
        """
        assert rules(src, DHT) == ["PERF001"]

    def test_raised_exceptions_are_exempt(self):
        src = """
        def build(peers):
            for p in peers:
                if p < 0:
                    raise LookupFailure(p)
        """
        assert rules(src, DHT) == []

    def test_error_suffixed_names_are_exempt(self):
        src = """
        def build(peers):
            for p in peers:
                e = RoutingError(p)
                collect(e)
        """
        assert rules(src, DHT) == []

    def test_lowercase_calls_stay_silent(self):
        src = """
        def build(peers):
            return [make_entry(p) for p in peers]
        """
        assert rules(src, DHT) == []

    def test_non_hot_module_stays_silent(self):
        src = """
        def build(peers):
            return [PeerInfo(p) for p in peers]
        """
        assert rules(src, ANALYSIS) == []

    def test_relaxed_scope_stays_silent(self):
        src = """
        def build(peers):
            return [PeerInfo(p) for p in peers]
        """
        assert rules(src, TESTS) == []

    def test_project_facts_restrict_to_dataclasses(self):
        # Only @dataclass types count as record types; plain classes
        # (often flyweights/engines) don't.
        src = """
        from dataclasses import dataclass

        @dataclass
        class Row:
            x: int

        class Engine:
            pass

        def f(xs):
            a = [Row(x) for x in xs]
            b = [Engine() for x in xs]
            return a, b
        """
        assert rules(src, DHT) == ["PERF001"]


# ----------------------------------------------------------------------
# FLT001 — order-sensitive float accumulation
# ----------------------------------------------------------------------
class TestFloatAccumulation:
    def test_flags_float_sum_over_set(self):
        src = """
        def f(vals):
            s = set(vals)
            return sum(x / 2 for x in s)
        """
        assert rules(src, CORE) == ["FLT001"]

    def test_flags_float_augassign_over_dict_view(self):
        src = """
        def f(d):
            total = 0.0
            for v in d.values():
                total += v
            return total
        """
        assert rules(src, SIM) == ["FLT001"]

    def test_integer_accumulation_stays_silent(self):
        src = """
        def f(vals):
            s = set(vals)
            total = 0
            for x in s:
                total += x
            return total
        """
        assert rules(src, CORE) == []

    def test_sorted_iterable_silences(self):
        src = """
        def f(vals):
            s = set(vals)
            return sum(x / 2 for x in sorted(s))
        """
        assert rules(src, CORE) == []

    def test_sum_over_ordered_list_stays_silent(self):
        src = """
        def f(vals):
            return sum(x / 2 for x in vals)
        """
        assert rules(src, CORE) == []

    def test_flags_set_returned_by_a_helper(self):
        src = """
        class C:
            def members(self):
                out: set[int] = set()
                return out

            def mean(self):
                return sum(x / 2 for x in enumerate(self.members()))
        """
        assert rules(src, CORE) == ["FLT001"]

    def test_flags_set_through_set_algebra(self):
        src = """
        def f(a, b):
            both = a.keys() | b
            total = 0.0
            for k in both if a else set(b):
                total += 1.0
            return total
        """
        assert rules(src, SIM) == ["FLT001"]


# ----------------------------------------------------------------------
# FRZ001 — frozen-config mutation
# ----------------------------------------------------------------------
class TestFrozenMutation:
    def test_flags_setattr_outside_construction(self):
        src = """
        class Config:
            def tweak(self):
                object.__setattr__(self, "seed", 1)
        """
        assert rules(src, CORE) == ["FRZ001"]

    def test_construction_methods_are_exempt(self):
        src = """
        class Config:
            def __init__(self):
                object.__setattr__(self, "seed", 1)

            def __post_init__(self):
                object.__setattr__(self, "derived", 2)

            def __setstate__(self, state):
                object.__setattr__(self, "seed", state["seed"])
        """
        assert rules(src, CORE) == []

    def test_relaxed_scope_stays_silent(self):
        src = """
        def force(cfg):
            object.__setattr__(cfg, "seed", 1)
        """
        assert rules(src, TESTS) == []


# ----------------------------------------------------------------------
# EXC001 — broad exception swallowing
# ----------------------------------------------------------------------
class TestBroadExcept:
    def test_flags_bare_except(self):
        src = """
        def step(net, msg):
            try:
                net.deliver(msg)
            except:
                pass
        """
        assert rules(src, SIM) == ["EXC001"]

    def test_flags_except_exception(self):
        src = """
        def route(net, key):
            try:
                return net.route(key)
            except Exception:
                return None
        """
        assert rules(src, DHT) == ["EXC001"]

    def test_flags_exception_inside_tuple(self):
        src = """
        def step(net, msg):
            try:
                net.deliver(msg)
            except (ValueError, Exception):
                pass
        """
        assert rules(src, SIM) == ["EXC001"]

    def test_specific_exception_stays_silent(self):
        src = """
        def step(net, msg):
            try:
                net.deliver(msg)
            except KeyError:
                pass
        """
        assert rules(src, SIM) == []

    def test_reraising_handler_stays_silent(self):
        src = """
        def step(net, msg):
            try:
                net.deliver(msg)
            except Exception as exc:
                log(exc)
                raise
        """
        assert rules(src, SIM) == []

    def test_out_of_scope_module_stays_silent(self):
        src = """
        def load(path):
            try:
                return parse(path)
            except Exception:
                return None
        """
        assert rules(src, ANALYSIS) == []


# ----------------------------------------------------------------------
# test-grade relaxations for benchmarks/ and examples/
# ----------------------------------------------------------------------
class TestRelaxedScopes:
    def test_examples_may_seed_rng_explicitly(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert rules(src, EXAMPLES) == []

    def test_examples_may_not_draw_os_entropy(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules(src, EXAMPLES) == ["DET001"]

    def test_benchmarks_skip_hot_path_rules(self):
        src = """
        def build(peers):
            return [PeerInfo(p) for p in peers]
        """
        assert rules(src, BENCHMARKS) == []
