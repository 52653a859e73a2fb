"""Cache configuration: one frozen policy object per deployment.

The policy is deliberately tiny — everything the cache subsystem does
is a pure function of these knobs plus the request sequence, which is
what keeps cached runs bit-reproducible (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require, require_int

__all__ = ["CachePolicy"]

#: Eviction disciplines understood by :class:`~repro.cache.store.NodeCache`.
EVICTION_MODES = ("lru", "ttl-lru")


@dataclass(frozen=True)
class CachePolicy:
    """Knobs of the per-node lookup cache.

    Attributes
    ----------
    capacity:
        Entries each node may hold; 0 disables caching entirely (every
        lookup pays the full inner-network path).
    eviction:
        ``"lru"`` evicts the least-recently-used entry at capacity;
        ``"ttl-lru"`` additionally expires entries older than
        ``ttl_ms`` on access (the staleness/maintenance tradeoff knob —
        short TTLs bound how long a crashed owner can be advertised).
    ttl_ms:
        Age ceiling for ``"ttl-lru"`` (simulated milliseconds on the
        :attr:`CachedNetwork.now_ms <repro.cache.network.CachedNetwork>`
        clock); ignored under plain ``"lru"``.
    cache_values:
        When True (CFS-style), nodes cache the lookup *answer* itself
        and can serve a request terminally — the hotspot-spreading
        mode.  When False they cache only the ``key -> owner`` routing
        shortcut: lookups still end at the owner, just in fewer hops.
    populate_path:
        When True (default, §3.2/CFS), a completed lookup installs its
        answer in every node along the path it took; when False only
        the originator caches it (client-side caching only).
    """

    capacity: int = 64
    eviction: str = "lru"
    ttl_ms: float = 0.0
    cache_values: bool = True
    populate_path: bool = True

    def __post_init__(self) -> None:
        require_int(self.capacity, 0, name="capacity")
        require(
            self.eviction in EVICTION_MODES,
            f"unknown eviction mode {self.eviction!r}; expected one of {EVICTION_MODES}",
        )
        if self.eviction == "ttl-lru":
            require(self.ttl_ms > 0.0, "ttl-lru eviction needs ttl_ms > 0")

    @property
    def enabled(self) -> bool:
        """Whether this policy caches anything at all."""
        return self.capacity > 0

    @property
    def expires(self) -> bool:
        """Whether entries age out (TTL discipline active)."""
        return self.eviction == "ttl-lru"
