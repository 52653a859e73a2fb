"""A replicated key-value store over a ring DHT.

The paper's lookups exist to serve a storage layer: "the node returns
the location information of the requested file to the originator"
(§3.2).  :class:`DHTStore` supplies that layer over any ring network
(flat Chord or HIERAS): values live at the key's owner and are
replicated on the owner's ``r`` successors, reads route to the owner,
and :meth:`repair` re-establishes placement after membership changes —
the standard Chord/CFS data discipline the paper inherits "for free"
from its underlying algorithm (§3.2's third advantage).

The store works against the trace-driven stacks; it is deliberately
synchronous (no message loss) — the fault-aware discipline (per-replica
``route_lossy`` contacts, chain/quorum consistency, hinted handoff)
lives in :mod:`repro.replication`, and the protocol-level durability
story is exercised by the churn benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dht.base import RouteResult
from repro.util.validation import require

__all__ = ["DHTStore", "StoreStats"]


@dataclass
class StoreStats:
    """Operation counters for overhead reporting."""

    puts: int = 0
    gets: int = 0
    get_hops: int = 0
    get_latency_ms: float = 0.0
    replicas_written: int = 0
    repairs: int = 0
    lost_after_repair: int = 0


class DHTStore:
    """Replicated KV storage over a ring network.

    Parameters
    ----------
    network:
        A :class:`~repro.dht.chord.ChordNetwork` or
        :class:`~repro.core.hieras.HierasNetwork` — anything with
        ``owner_of``, ``route``, ``successor_list`` (HIERAS exposes the
        global ring's), and stable peer indices.
    replicas:
        Copies beyond the owner (CFS uses a handful).
    restore_lost:
        When True (default), :meth:`repair` restores values whose every
        replica crashed from the authoritative audit catalogue — useful
        when the store is the measurement harness.  When False, such
        values are genuinely gone (reads return ``None``), which is the
        realistic durability model churn experiments need.
    """

    def __init__(
        self, network: Any, *, replicas: int = 2, restore_lost: bool = True
    ) -> None:
        require(replicas >= 0, "replicas must be >= 0")
        self.network = network
        self.replicas = replicas
        self.restore_lost = restore_lost
        self._lost: set[int] = set()
        #: Per-peer storage: peer -> {key -> value}.
        self._stored: dict[int, dict[int, Any]] = {}
        #: Authoritative catalogue for repair audits: key -> value.
        self._catalog: dict[int, Any] = {}
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def _space(self):
        return self.network.space

    def _replica_peers(self, key: int) -> list[int]:
        owner = self.network.owner_of(key)
        peers = [owner]
        if self.replicas > 0:
            # On tiny rings (replicas >= n-1) the successor list wraps
            # and would re-include the owner, double-counting
            # replicas_written; dedupe while preserving order.
            for peer in self._successors_of(owner):
                if peer not in peers:
                    peers.append(peer)
        return peers

    def _successors_of(self, peer: int) -> list[int]:
        # Global-ring successors on both ring stacks (HIERAS inherits it).
        return self.network.successor_list(peer, self.replicas)

    # ------------------------------------------------------------------
    def put(self, name: str, value: Any) -> int:
        """Store ``value`` under ``name``; returns the key used.

        Writes land on the key's owner and its ``replicas`` successors.
        """
        key = self._space().hash_key(name)
        self._catalog[key] = value
        self._lost.discard(key)  # a fresh publish resurrects a lost key
        for peer in self._replica_peers(key):
            self._stored.setdefault(peer, {})[key] = value
            self.stats.replicas_written += 1
        self.stats.puts += 1
        return key

    def get(self, source: int, name: str) -> tuple[Any | None, RouteResult]:
        """Route from ``source`` to ``name``'s owner and read the value.

        Returns ``(value_or_None, route)``; the route carries the hops
        and latency the lookup cost.
        """
        key = self._space().hash_key(name)
        route = self.network.route(source, key)
        self.stats.gets += 1
        self.stats.get_hops += route.hops
        self.stats.get_latency_ms += route.latency_ms
        value = self._stored.get(route.owner, {}).get(key)
        if value is None:
            # Owner lost it (e.g. churn before repair): any replica that
            # the owner's successor list reaches may still hold it.
            # Each probe is one extra message from the owner — charge a
            # hop and the link's delay, probed or not answered alike.
            for peer in self._successors_of(route.owner):
                self.stats.get_hops += 1
                self.stats.get_latency_ms += float(
                    self.network.latency.pair(route.owner, peer)
                )
                value = self._stored.get(peer, {}).get(key)
                if value is not None:
                    break
        return value, route

    # ------------------------------------------------------------------
    def drop_peer_state(self, peer: int) -> None:
        """Forget everything a crashed peer stored (its disk is gone)."""
        self._stored.pop(peer, None)

    def repair(self) -> int:
        """Re-establish ownership/replication after membership changes.

        Walks the catalogue, rewrites every key to its *current* owner
        and successor set, and drops copies from peers that should no
        longer hold them.  Returns the number of keys whose owner
        changed.  (This is the offline equivalent of Chord's background
        transfer on join/leave.)
        """
        moved = 0
        still_held: set[int] = set()
        for held in self._stored.values():
            still_held.update(held)
        desired: dict[int, dict[int, Any]] = {}
        # Sorted walk: per-peer store dicts are rebuilt in key order, so
        # the post-repair layout is canonical for a given membership.
        for key, value in sorted(self._catalog.items()):
            if key in self._lost:
                continue
            if key not in still_held:
                # Every replica crashed before this repair ran: a real
                # deployment has lost the value.
                self.stats.lost_after_repair += 1
                if not self.restore_lost:
                    self._lost.add(key)
                    continue
            peers = self._replica_peers(key)
            if key not in self._stored.get(peers[0], {}):
                moved += 1
            for peer in peers:
                desired.setdefault(peer, {})[key] = value
        self._stored = desired
        self.stats.repairs += 1
        return moved

    # ------------------------------------------------------------------
    def holder_count(self, name: str) -> int:
        """How many peers currently hold ``name``."""
        key = self._space().hash_key(name)
        return sum(1 for held in self._stored.values() if key in held)

    def stored_keys(self, peer: int) -> set[int]:
        """Keys currently held by ``peer``."""
        return set(self._stored.get(peer, {}))

    def __len__(self) -> int:
        return len(self._catalog)
