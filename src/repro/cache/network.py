"""Cache-aware routing over either trace-driven stack (DESIGN.md §9).

:class:`CachedNetwork` wraps a flat :class:`~repro.dht.chord.ChordNetwork`
or a :class:`~repro.core.hieras.HierasNetwork` and serves lookups
CFS-style: a completed lookup installs its answer in the cache of every
node along the path it took, so later requests for the same (hot) key
terminate at the first cache holder they meet — or jump straight to the
owner via a cached routing shortcut — instead of walking the full
finger-table path to the owner every time.  Hot-key load spreads from
the key's owner across the cache holders, and mean hop/latency drops
with the workload's skew (the ``cache_effect`` experiment quantifies
both).

Correctness under staleness is explicit, never assumed:

* plain :meth:`CachedNetwork.route_cached` verifies a cached shortcut
  against current membership — a removed or no-longer-responsible
  owner is evicted and the lookup continues by real routing;
* :meth:`CachedNetwork.route_cached_lossy` works under a
  :class:`~repro.faults.injector.FaultInjector`: contacting a cached
  owner that has silently crashed times out (paying the retry policy's
  penalty), the entry is evicted, and the lookup falls back to the
  failure-aware ``route_lossy`` path.

Determinism: caches are plain dicts in insertion order, the cache clock
(:attr:`CachedNetwork.now_ms`) only moves via :meth:`advance_to`, and
no RNG is involved — a replayed trace reproduces hits, evictions and
load counts exactly.  Observability follows the §7 contract: with no
recorder attached a cached lookup pays ``is None`` checks only; with
one attached, spans carry per-hop cache annotations and the registry
counts ``cache.*`` events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policy import CachePolicy
from repro.cache.store import CacheEntry, NodeCache
from repro.dht.base import DHTNetwork, RouteResult
from repro.dht.chord import ChordNetwork
from repro.faults.injector import FaultInjector, LossyContext
from repro.util.validation import require

__all__ = ["CachedNetwork", "CacheStats"]


@dataclass
class CacheStats:
    """Aggregate cache-event counters (always on — plain integer adds).

    ``hits == value_hits + shortcut_hits``; ``lookups == hits + misses``
    (stale fallbacks count as misses: the full path was paid).
    """

    lookups: int = 0
    value_hits: int = 0
    shortcut_hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    stale_evictions: int = 0

    @property
    def hits(self) -> int:
        return self.value_hits + self.shortcut_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from some cache (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Stable JSON-safe dump (sorted keys; used by BENCH_cache)."""
        return {
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "value_hits": float(self.value_hits),
            "shortcut_hits": float(self.shortcut_hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "insertions": float(self.insertions),
            "evictions": float(self.evictions),
            "expirations": float(self.expirations),
            "stale_evictions": float(self.stale_evictions),
        }


class CachedNetwork(DHTNetwork):
    """A caching layer over one inner routing stack.

    Parameters
    ----------
    inner:
        The network being cached.  Attach span recorders to *this*
        wrapper (not to ``inner``) — cached lookups are recorded once,
        with cache annotations, under :attr:`label`.
    policy:
        Cache sizing/eviction knobs; ``capacity=0`` makes the wrapper a
        transparent pass-through (useful as the uncached baseline with
        identical accounting).
    label:
        Span/metric label; defaults to ``cached-chord`` /
        ``cached-hieras`` from the inner network's ``span_label``.

    Notes
    -----
    ``route`` delegates to :meth:`route_cached`, so the wrapper is a
    drop-in :class:`~repro.dht.base.DHTNetwork` — ``collect_routes``,
    the analysis layer and the experiment harness all work unchanged.
    ``RouteResult.owner`` is the peer that *served* the request (always
    ``path[-1]``): the key's owner on a miss or shortcut, a cache
    holder on a value hit.
    """

    def __init__(
        self,
        inner: ChordNetwork,
        policy: CachePolicy | None = None,
        *,
        label: str | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else CachePolicy()
        self.space = inner.space
        self.latency = inner.latency
        self.label = label if label is not None else f"cached-{inner.span_label}"
        #: Simulated cache clock (ms); advanced only by :meth:`advance_to`.
        self.now_ms = 0.0
        self._caches: dict[int, NodeCache] = {}
        self._served: dict[int, int] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # clock & plumbing
    # ------------------------------------------------------------------
    def advance_to(self, t_ms: float) -> None:
        """Move the cache clock forward (drives TTL expiry)."""
        require(t_ms >= self.now_ms, "the cache clock cannot run backwards")
        self.now_ms = t_ms

    def cache_of(self, peer: int) -> NodeCache:
        """The (lazily created) cache of one peer."""
        cache = self._caches.get(peer)
        if cache is None:
            cache = self._caches[peer] = NodeCache(self.policy)
        return cache

    @property
    def n_peers(self) -> int:
        return self.inner.n_peers

    def owner_of(self, key: int) -> int:
        return self.inner.owner_of(key)

    def route(self, source: int, key: int) -> RouteResult:
        """Cache-aware routing (the :meth:`route_cached` entry point)."""
        return self.route_cached(source, key)

    # ------------------------------------------------------------------
    # load accounting
    # ------------------------------------------------------------------
    def load_summary(self) -> dict[str, float]:
        """Owner-load concentration: max/mean requests served per node.

        ``concentration`` is ``max_served / (total / n_peers)`` — 1.0
        would be a perfectly even spread; hot-key workloads without
        caching concentrate load on the hot keys' owners.
        """
        total = sum(self._served.values())
        peak = max(self._served.values()) if self._served else 0
        n = self.inner.n_peers
        mean = total / n if n else 0.0
        return {
            "total_served": float(total),
            "max_served": float(peak),
            "mean_served": mean,
            "concentration": peak / mean if mean else 0.0,
        }

    # ------------------------------------------------------------------
    # cache-aware routing
    # ------------------------------------------------------------------
    def route_cached(self, source: int, key: int) -> RouteResult:
        """Route ``key`` from ``source``, consulting caches on the way.

        Order of checks (all deterministic):

        1. ``source``'s own cache — a value hit serves locally (0
           hops); a *verified* shortcut jumps straight to the owner
           (1 hop).  A stale shortcut (owner removed, or no longer the
           key's successor after membership change) is evicted and the
           lookup proceeds by real routing — from the ex-owner if it is
           still a member (it forwards), from scratch otherwise (the
           wasted probe is charged as one timeout's retry latency).
        2. The inner network's path toward the owner, truncated at the
           first node holding a cached value (it serves) or a verified
           shortcut (it forwards directly to the owner).
        3. On a full miss the path runs to the owner, CFS-style path
           population installs the answer along it.
        """
        key = self.space.wrap(int(key))
        self.stats.lookups += 1
        entry = self._read(source, key)
        if entry is not None and entry.has_value:
            return self._finish(source, key, [source], [], [], "value-hit")
        probe = None
        if entry is not None:
            owner = entry.owner
            if self.inner.is_alive(owner) and self.inner.owner_of(key) == owner:
                return self._finish(source, key, [source, owner], [], [], "shortcut")
            # Stale shortcut: the cached owner is gone or demoted.
            self._evict_stale(source, key)
            if self.inner.is_alive(owner):
                # The ex-owner is still a member: it forwards the
                # request onward, so the probe hop is part of the path.
                cont = self.inner.route(owner, key)
                layers, rings = self.inner.hop_layer_info(cont)
                return self._finish(
                    source, key, [source, *cont.path], [1, *layers], ["global", *rings], "stale"
                )
            # The cached owner left the overlay entirely: the probe
            # times out and the lookup restarts from the source.
            probe = LossyContext(1, float(self.latency.pair(source, owner)))
        return self._route_miss(source, key, probe)

    def _route_miss(self, source: int, key: int, probe: LossyContext | None) -> RouteResult:
        """Real routing with path-cache consultation and population."""
        inner_res = self.inner.route(source, key)
        path = inner_res.path
        layers, rings = self.inner.hop_layer_info(inner_res)
        for i in range(1, len(path) - 1):
            node = path[i]
            entry = self._read(node, key)
            if entry is None:
                continue
            if entry.has_value:
                # The request terminates here: this node serves the
                # cached answer instead of forwarding further.
                return self._finish(
                    source, key, path[: i + 1], layers[:i], rings[:i], "value-hit",
                    owner_hint=entry.owner, probe=probe,
                )
            if self.inner.is_alive(entry.owner) and entry.owner == path[-1]:
                # Routing shortcut: forward straight to the owner.
                return self._finish(
                    source, key, [*path[: i + 1], path[-1]], layers[:i], rings[:i], "shortcut",
                    probe=probe,
                )
            self._evict_stale(node, key)
        self.stats.misses += 1
        self._count("cache.misses")
        return self._finish(source, key, path, layers, rings, routed=inner_res, probe=probe)

    # ------------------------------------------------------------------
    # failure-aware cache routing
    # ------------------------------------------------------------------
    def route_cached_lossy(
        self, source: int, key: int, *, injector: FaultInjector
    ) -> RouteResult:
        """Cache-aware routing under an active fault injector.

        A locally cached value is served without any network contact (a
        crashed owner cannot invalidate copies already spread — the
        staleness tradeoff DESIGN.md §9 discusses).  A cached routing
        shortcut must *contact* the cached owner: if that contact times
        out (silent crash, partition, loss), the entry is evicted, the
        timeout penalty is charged, and the lookup falls back to the
        failure-aware ``route_lossy`` path over the inner network.
        Fallback and miss lookups still populate path caches on
        success, so the cache keeps adapting to the post-fault world.
        """
        key = self.space.wrap(int(key))
        self.stats.lookups += 1
        entry = self._read(source, key)
        if entry is not None and entry.has_value:
            return self._finish(source, key, [source], [], [], "value-hit")
        probe = LossyContext()
        if entry is not None:
            if injector.contact(source, entry.owner, probe):
                return self._finish(
                    source, key, [source, entry.owner], [], [], "shortcut", probe=probe
                )
            # The cached owner is unreachable (crashed, partitioned or
            # lossy): detected by the failed contact, evicted, and the
            # lookup falls back to failure-aware routing.
            self._evict_stale(source, key)
        result = self.inner.route_lossy(source, key, injector=injector)
        self.stats.misses += 1
        self._count("cache.misses")
        layers, rings = self.inner.hop_layer_info(result)
        return self._finish(source, key, result.path, layers, rings, routed=result, probe=probe)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        """Registry-side cache counter (no-op without a recorder)."""
        if self.metrics is not None:
            self.metrics.registry.inc(name, n)

    def _read(self, node: int, key: int) -> CacheEntry | None:
        """``node``'s live entry for ``key``; an expired one is dropped and counted."""
        entry, expired = self.cache_of(node).get(key, self.now_ms)
        if expired:
            self.stats.expirations += 1
            self._count("cache.expirations")
        return entry

    def _evict_stale(self, node: int, key: int) -> None:
        """Drop ``node``'s entry for ``key``: its owner is gone, demoted or unreachable."""
        self.cache_of(node).evict(key)
        self.stats.stale_evictions += 1
        self._count("cache.stale_evictions")

    def _serve(self, peer: int) -> None:
        self._served[peer] = self._served.get(peer, 0) + 1

    def _populate(self, key: int, path: list[int], server: int) -> None:
        """Install the answer along the path (CFS-style, §3.2)."""
        if not self.policy.enabled:
            return
        owner = path[-1]
        targets = path[:-1] if self.policy.populate_path else path[:1]
        for node in targets:
            if node == server:
                continue
            evicted = self.cache_of(node).put(
                key,
                CacheEntry(
                    owner=owner, has_value=self.policy.cache_values,
                    inserted_ms=self.now_ms,
                ),
            )
            self.stats.insertions += 1
            if evicted:
                self.stats.evictions += evicted
                self._count("cache.evictions", evicted)

    def _layer_counts(self, layers: list[int]) -> list[int]:
        """Per-hop layer labels -> the ``hops_per_layer`` list shape."""
        depth = int(getattr(self.inner, "depth", 1))
        counts = [0] * depth
        for layer in layers:
            counts[depth - layer] += 1
        return counts

    def _finish(
        self,
        source: int,
        key: int,
        path: list[int],
        layers: list[int],
        rings: list[str],
        mode: str = "",
        *,
        owner_hint: int | None = None,
        routed: RouteResult | None = None,
        probe: LossyContext | None = None,
    ) -> RouteResult:
        """Account one finished lookup and build its result and span.

        Every exit of both cached routes ends here.  ``mode`` says what
        the caches did: ``"value-hit"`` / ``"shortcut"`` — one served,
        or pointed, the last hop; ``"stale"`` — the first hop probed a
        demoted owner, which forwarded; ``""`` — routed all the way.
        ``layers``/``rings`` cover the *routed* hops of ``path``; cache
        hops past them (the shortcut jump) are labelled layer 1/global.
        ``owner_hint`` is the owner to advertise when populating after
        an intermediate value hit (the serving node's cached owner).
        ``routed`` is the inner result when ``path`` is exactly its
        path: latency, layer counts and — under faults — the outcome
        are then its own.  ``probe`` holds the timeouts a cached
        shortcut's owner cost before the lookup got here.
        """
        if mode == "value-hit":
            self.stats.value_hits += 1
            self._count("cache.value_hits")
            self._count("cache.hits")
        elif mode == "shortcut":
            self.stats.shortcut_hits += 1
            self._count("cache.shortcut_hits")
            self._count("cache.hits")
        n_hops = len(path) - 1
        pad = n_hops - len(layers)
        layers = [*layers, *([1] * pad)]
        rings = [*rings, *(["global"] * pad)]
        server = path[-1]
        ok = routed is None or routed.success
        if ok:
            self._serve(server)
            if mode in ("", "stale"):
                self._populate(key, path, server)
            elif owner_hint is not None and self.policy.populate_path:
                # Spread the answer down the prefix that walked to the hit.
                self._populate(key, [*path[:-1], owner_hint], server)
        timeouts, retry_latency_ms = (0, 0.0) if probe is None else (probe.timeouts, probe.retry_latency_ms)
        if routed is None:
            latency_ms = self.route_latency(self.latency, path)
            hops_per_layer = self._layer_counts(layers)
        else:
            latency_ms, hops_per_layer = routed.latency_ms, routed.hops_per_layer
            timeouts += routed.timeouts
            retry_latency_ms = routed.retry_latency_ms + retry_latency_ms
        result = RouteResult(
            source=source,
            key=key,
            owner=server if ok else -1,
            path=path,
            latency_ms=latency_ms,
            hops_per_layer=hops_per_layer,
            success=ok,
            timeouts=timeouts,
            retry_latency_ms=retry_latency_ms,
        )
        if self.metrics is not None:
            cache_ann = [""] * n_hops
            if mode and n_hops:
                cache_ann[0 if mode == "stale" else -1] = mode
            self.record_route(
                self.label, result, layers=layers, rings=rings, cache=cache_ann
            )
        return result
