"""Tests for the ``repro.cache`` subsystem (DESIGN.md §9).

Covers the deterministic store (LRU / TTL+LRU), the policy object, the
cache-aware routing semantics over both stacks, the staleness story
under membership change and under the fault injector (the
cached-but-crashed-owner acceptance case), span/registry integration,
and replay determinism.
"""

import json

import numpy as np
import pytest

from repro.cache import CachedNetwork, CacheEntry, CachePolicy, NodeCache
from repro.cache.policy import EVICTION_MODES
from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.registry import MetricsRegistry
from repro.metrics.sinks import MemorySink
from repro.metrics.spans import SpanRecorder
from repro.util.ids import IdSpace


def build_stacks(n=200, seed=1, depth=2):
    """A (chord, hieras) pair sharing ids; ZeroLatency (hops matter)."""
    rng = np.random.default_rng(seed)
    space = IdSpace(16)
    ids = space.sample_unique_ids(n, rng)
    chord = ChordNetwork(space, ids)
    distances = rng.uniform(0, 300, size=(n, 4))
    orders = BinningScheme.default_for_depth(max(depth, 2)).orders(distances)
    hieras = HierasNetwork(space, ids, landmark_orders=orders, depth=depth)
    return space, chord, hieras


class TestCachePolicy:
    def test_defaults_enabled(self):
        policy = CachePolicy()
        assert policy.enabled and not policy.expires
        assert policy.eviction in EVICTION_MODES

    def test_capacity_zero_disables(self):
        assert not CachePolicy(capacity=0).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicy(capacity=-1)
        with pytest.raises(ValueError):
            CachePolicy(eviction="fifo")
        with pytest.raises(ValueError):
            CachePolicy(eviction="ttl-lru")  # needs ttl_ms > 0

    def test_ttl_policy(self):
        policy = CachePolicy(eviction="ttl-lru", ttl_ms=100.0)
        assert policy.expires


class TestNodeCache:
    def entry(self, owner, t=0.0):
        return CacheEntry(owner=owner, has_value=True, inserted_ms=t)

    def test_lru_eviction_order_is_insertion_order(self):
        cache = NodeCache(CachePolicy(capacity=3))
        for key in (10, 20, 30):
            assert cache.put(key, self.entry(key)) == 0
        assert cache.put(40, self.entry(40)) == 1  # evicts 10
        assert list(cache._entries) == [20, 30, 40]
        assert 10 not in cache

    def test_hit_refreshes_recency(self):
        cache = NodeCache(CachePolicy(capacity=3))
        for key in (1, 2, 3):
            cache.put(key, self.entry(key))
        entry, expired = cache.get(1, now_ms=0.0)
        assert entry is not None and not expired
        cache.put(4, self.entry(4))  # 2 is now the LRU, not 1
        assert list(cache._entries) == [3, 1, 4]

    def test_reinsert_refreshes_without_evicting(self):
        cache = NodeCache(CachePolicy(capacity=2))
        cache.put(1, self.entry(1))
        cache.put(2, self.entry(2))
        assert cache.put(1, self.entry(99)) == 0
        assert len(cache) == 2
        entry, _ = cache.get(1, now_ms=0.0)
        assert entry.owner == 99
        assert list(cache._entries)[-1] == 1  # most recently used

    def test_ttl_expiry(self):
        cache = NodeCache(CachePolicy(capacity=4, eviction="ttl-lru", ttl_ms=10.0))
        cache.put(1, self.entry(1, t=0.0))
        entry, expired = cache.get(1, now_ms=5.0)
        assert entry is not None and not expired
        entry, expired = cache.get(1, now_ms=20.0)
        assert entry is None and expired
        assert 1 not in cache  # expiry removed it

    def test_disabled_cache_stores_nothing(self):
        cache = NodeCache(CachePolicy(capacity=0))
        assert cache.put(1, self.entry(1)) == 0
        assert len(cache) == 0

    def test_evict(self):
        cache = NodeCache(CachePolicy(capacity=2))
        cache.put(1, self.entry(1))
        assert cache.evict(1) is True
        assert cache.evict(1) is False

    def test_deterministic_replay(self):
        """The same access sequence always yields the same cache state."""
        rng = np.random.default_rng(3)
        ops = [(int(rng.integers(0, 20)), bool(rng.integers(0, 2))) for _ in range(500)]

        def replay():
            cache = NodeCache(CachePolicy(capacity=8))
            for i, (key, is_put) in enumerate(ops):
                if is_put:
                    cache.put(key, CacheEntry(key, True, float(i)))
                else:
                    cache.get(key, float(i))
            return list(cache._entries)

        assert replay() == replay()


class TestCachedRouting:
    @pytest.fixture(params=["chord", "hieras"])
    def cached(self, request):
        space, chord, hieras = build_stacks()
        inner = chord if request.param == "chord" else hieras
        return space, inner, CachedNetwork(inner, CachePolicy(capacity=16))

    def test_miss_matches_inner_route(self, cached):
        space, inner, net = cached
        key = space.hash_key("some-file")
        result = net.route_cached(7, key)
        base = inner.route(7, key)
        assert result.path == base.path
        assert result.owner == base.owner == inner.owner_of(key)
        assert net.stats.misses == 1 and net.stats.hits == 0

    def test_repeat_lookup_served_locally(self, cached):
        space, inner, net = cached
        key = space.hash_key("hot")
        net.route_cached(7, key)
        repeat = net.route_cached(7, key)
        assert repeat.path == [7] and repeat.hops == 0
        assert repeat.owner == 7  # the source itself serves the value
        assert net.stats.value_hits == 1

    def test_shortcut_only_policy_jumps_to_owner(self, cached):
        space, inner, _ = cached
        net = CachedNetwork(inner, CachePolicy(capacity=16, cache_values=False))
        key = space.hash_key("hot")
        first = net.route_cached(7, key)
        second = net.route_cached(7, key)
        assert second.path == [7, first.owner]
        assert second.owner == first.owner
        assert net.stats.shortcut_hits == 1

    def test_path_population_spreads_the_answer(self, cached):
        """CFS-style: every node along a miss path learns the answer."""
        space, inner, net = cached
        key = space.hash_key("spread")
        result = net.route_cached(7, key)
        for node in result.path[:-1]:
            entry, _ = net.cache_of(node).get(key, 0.0)
            assert entry is not None and entry.owner == result.owner

    def test_populate_path_false_caches_only_at_source(self, cached):
        space, inner, _ = cached
        net = CachedNetwork(inner, CachePolicy(capacity=16, populate_path=False))
        key = space.hash_key("client-side")
        result = net.route_cached(7, key)
        assert key in net.cache_of(7)
        for node in result.path[1:-1]:
            assert key not in net.cache_of(node)

    def test_capacity_zero_is_transparent(self, cached):
        space, inner, _ = cached
        net = CachedNetwork(inner, CachePolicy(capacity=0))
        rng = np.random.default_rng(5)
        for _ in range(30):
            src = int(rng.integers(0, inner.n_peers))
            key = int(rng.integers(0, space.size))
            assert net.route_cached(src, key).path == inner.route(src, key).path
        assert net.stats.hits == 0 and net.stats.insertions == 0

    def test_hops_per_layer_shape(self, cached):
        space, inner, net = cached
        depth = int(getattr(inner, "depth", 1))
        key = space.hash_key("layers")
        for result in (net.route_cached(7, key), net.route_cached(7, key)):
            assert len(result.hops_per_layer) == depth
            assert sum(result.hops_per_layer) == result.hops

    def test_accounting_identity(self, cached):
        space, inner, net = cached
        rng = np.random.default_rng(6)
        keys = [space.hash_key(f"f{i}") for i in range(10)]
        for _ in range(200):
            net.route_cached(int(rng.integers(0, inner.n_peers)), keys[int(rng.integers(0, 10))])
        assert net.stats.lookups == 200
        assert net.stats.hits + net.stats.misses == net.stats.lookups
        assert net.stats.hits > 0
        load = net.load_summary()
        assert load["total_served"] == 200.0
        assert sum(net._served.values()) == 200

    def test_route_delegates_to_route_cached(self, cached):
        space, inner, net = cached
        key = space.hash_key("delegate")
        net.route(3, key)
        assert net.route(3, key).hops == 0
        assert net.stats.lookups == 2

    def test_stale_owner_after_membership_change(self, cached):
        """A cached shortcut to a removed peer is evicted; routing recovers."""
        space, inner, _ = cached
        net = CachedNetwork(inner, CachePolicy(capacity=16, cache_values=False))
        key = space.hash_key("doomed-owner")
        owner = inner.owner_of(key)
        net.route_cached(7, key)
        inner.remove_peer(owner)
        try:
            result = net.route_cached(7, key)
            assert result.success
            new_owner = inner.owner_of(key)
            assert result.owner == new_owner != owner
            # The stale shortcut was spread along the whole first path;
            # every copy the recovery lookup meets gets evicted.
            assert net.stats.stale_evictions >= 1
            entry, _ = net.cache_of(7).get(key, net.now_ms)
            assert entry is not None and entry.owner == new_owner
        finally:
            inner.revive_peer(owner)


class TestCacheClockAndTtl:
    def test_clock_cannot_run_backwards(self):
        _, chord, _ = build_stacks()
        net = CachedNetwork(chord, CachePolicy())
        net.advance_to(10.0)
        with pytest.raises(ValueError):
            net.advance_to(5.0)

    def test_ttl_expires_cached_answers(self):
        space, chord, _ = build_stacks()
        net = CachedNetwork(
            chord, CachePolicy(capacity=16, eviction="ttl-lru", ttl_ms=50.0)
        )
        key = space.hash_key("aging")
        net.route_cached(7, key)
        net.advance_to(10.0)
        assert net.route_cached(7, key).hops == 0  # still fresh
        net.advance_to(100.0)
        expired = net.route_cached(7, key)
        assert expired.hops > 0  # aged out: full route again
        assert net.stats.expirations >= 1


class TestCachedLossy:
    def test_cached_but_crashed_owner_evicted_and_fallback_succeeds(self):
        """The acceptance case: a cached owner crashes; the next lookup
        detects it (failed contact), evicts the entry, pays the timeout,
        and still succeeds via failure-aware fallback routing."""
        rng = np.random.default_rng(1)
        space = IdSpace(16)
        ids = space.sample_unique_ids(200, rng)
        chord = ChordNetwork(space, ids, successor_list_r=16)
        net = CachedNetwork(chord, CachePolicy(capacity=16, cache_values=False))
        key = space.hash_key("hot-file")
        owner = chord.owner_of(key)
        plan = FaultPlan(seed=3).crash_peers(at_ms=10.0, peers=[owner])
        injector = FaultInjector(plan, 200)

        first = net.route_cached_lossy(5, key, injector=injector)
        assert first.success and first.owner == owner
        hit = net.route_cached_lossy(5, key, injector=injector)
        assert hit.path == [5, owner]  # shortcut while the owner lives

        injector.advance_to(20.0)  # the cached owner crashes
        fallback = net.route_cached_lossy(5, key, injector=injector)
        assert fallback.success
        assert fallback.owner != owner
        assert fallback.timeouts >= 1  # the failed contact was paid for
        assert net.stats.stale_evictions == 1
        # The successful fallback re-learns the live owner...
        entry, _ = net.cache_of(5).get(key, net.now_ms)
        assert entry is not None and entry.owner == fallback.owner
        # ...so the next lookup is a 1-hop shortcut again.
        healed = net.route_cached_lossy(5, key, injector=injector)
        assert healed.path == [5, fallback.owner]

    def test_local_value_hits_need_no_contact(self):
        """A cached value is served locally even when its owner is dead
        (the staleness tradeoff §9 documents)."""
        rng = np.random.default_rng(1)
        space = IdSpace(16)
        ids = space.sample_unique_ids(200, rng)
        chord = ChordNetwork(space, ids, successor_list_r=16)
        net = CachedNetwork(chord, CachePolicy(capacity=16))
        key = space.hash_key("hot-file")
        owner = chord.owner_of(key)
        plan = FaultPlan(seed=3).crash_peers(at_ms=10.0, peers=[owner])
        injector = FaultInjector(plan, 200)
        net.route_cached_lossy(5, key, injector=injector)
        injector.advance_to(20.0)
        served = net.route_cached_lossy(5, key, injector=injector)
        assert served.hops == 0 and served.timeouts == 0


class TestCacheObservability:
    def test_no_recorder_no_spans(self):
        space, chord, _ = build_stacks()
        net = CachedNetwork(chord, CachePolicy())
        assert net.metrics is None
        net.route_cached(3, space.hash_key("quiet"))

    def test_spans_carry_cache_annotations(self):
        space, chord, _ = build_stacks()
        net = CachedNetwork(chord, CachePolicy())
        sink = MemorySink()
        recorder = SpanRecorder(registry=MetricsRegistry(), sinks=[sink])
        net.enable_tracing(recorder)
        key = space.hash_key("traced")
        net.route_cached(3, key)
        net.route_cached(9, key)  # hits a cache somewhere along the way
        assert len(sink) == 2
        assert all(span.network == "cached-chord" for span in sink.spans)
        first, second = sink.spans
        assert all(h.cache == "" for h in first.hops)
        cache_hops = [h.cache for h in second.hops if h.cache]
        assert cache_hops in ([], ["value-hit"], ["shortcut"])
        reg = recorder.registry
        assert reg.counter("cache.misses").value == net.stats.misses
        assert (
            reg.counter("cache.value_hits").value
            + reg.counter("cache.shortcut_hits").value
            == net.stats.hits
        )
        # Annotated hops also land as per-label span counters.
        if cache_hops:
            assert reg.counter(f"cached-chord.cache.{cache_hops[0]}").value == 1

    def test_hop_record_round_trips_cache_field(self):
        from repro.metrics.spans import HopRecord

        hop = HopRecord(
            index=0, src=1, dst=2, layer=1, ring="global",
            latency_ms=3.5, cache="value-hit",
        )
        assert HopRecord.from_dict(hop.to_dict()) == hop
        # Pre-cache payloads (no "cache" key) still load.
        legacy = {k: v for k, v in hop.to_dict().items() if k != "cache"}
        assert HopRecord.from_dict(legacy).cache == ""


class TestCacheDeterminism:
    def test_replay_is_bit_identical(self):
        """Same trace, fresh caches → identical stats, loads and results."""
        space, chord, hieras = build_stacks()
        rng = np.random.default_rng(9)
        trace = [
            (int(rng.integers(0, 200)), space.hash_key(f"f{int(rng.integers(0, 30))}"))
            for _ in range(300)
        ]

        def run(inner):
            net = CachedNetwork(inner, CachePolicy(capacity=8))
            out = []
            for i, (src, key) in enumerate(trace):
                net.advance_to(float(i))
                r = net.route_cached(src, key)
                out.append((r.owner, tuple(r.path), r.latency_ms))
            return json.dumps(
                {
                    "results": out,
                    "stats": net.stats.as_dict(),
                    "served": dict(sorted(net._served.items())),
                    "load": net.load_summary(),
                },
                sort_keys=True,
            )

        for inner in (chord, hieras):
            assert run(inner) == run(inner)
