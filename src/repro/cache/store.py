"""One node's lookup cache: deterministic LRU / TTL+LRU over a dict.

Python dicts iterate in insertion order, so maintaining recency by
re-inserting on every hit gives an exact LRU whose eviction order is a
pure function of the access sequence — no hashing artefacts, no RNG,
nothing for the determinism scans (DESIGN.md §8) to object to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policy import CachePolicy

__all__ = ["CacheEntry", "NodeCache"]


@dataclass
class CacheEntry:
    """One cached lookup answer.

    ``owner`` is the peer index the key resolved to when the entry was
    installed — a routing shortcut at minimum; when ``has_value`` is
    True the node also holds the answer itself (the CFS-style cached
    copy) and can serve a request without forwarding it.
    """

    owner: int
    has_value: bool
    inserted_ms: float


class NodeCache:
    """Bounded per-node cache of ``key -> CacheEntry``.

    The dict's insertion order *is* the recency order: :meth:`get`
    re-inserts on every hit, so the first key in iteration order is
    always the least recently used and eviction pops exactly that.
    """

    __slots__ = ("policy", "_entries")

    def __init__(self, policy: CachePolicy) -> None:
        self.policy = policy
        self._entries: dict[int, CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def get(self, key: int, now_ms: float) -> tuple[CacheEntry | None, bool]:
        """Look up ``key``; returns ``(entry, expired)``.

        A fresh hit refreshes the entry's recency.  Under ``ttl-lru``
        an entry older than ``ttl_ms`` is removed and reported as
        ``(None, True)`` — the caller counts the expiry.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None, False
        if self.policy.expires and now_ms - entry.inserted_ms > self.policy.ttl_ms:
            del self._entries[key]
            return None, True
        del self._entries[key]  # re-insert: most recently used goes last
        self._entries[key] = entry
        return entry, False

    def put(self, key: int, entry: CacheEntry) -> int:
        """Install/refresh ``key``; returns how many entries were evicted.

        Re-inserting an existing key refreshes both its payload and its
        recency without evicting.  At capacity the least recently used
        entry (the dict's first key) makes room.
        """
        if not self.policy.enabled:
            return 0
        evicted = 0
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.policy.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            evicted = 1
        self._entries[key] = entry
        return evicted

    def evict(self, key: int) -> bool:
        """Drop ``key`` if present (staleness invalidation); True if dropped."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    # ------------------------------------------------------------------
