"""Common DHT abstractions: route results and the network interface.

Every routing stack in the repository produces :class:`RouteResult`
records, so the analysis and experiment layers are substrate-agnostic:
the ring arrays — flat Chord (:mod:`repro.dht.chord`) and HIERAS over
Chord (:mod:`repro.core.hieras`) — and the side stacks, CAN
(:mod:`repro.dht.can`), multi-reality CAN
(:mod:`repro.dht.can_realities`), HIERAS over CAN
(:mod:`repro.core.hieras_can`), Pastry (:mod:`repro.dht.pastry`),
Tapestry (:mod:`repro.dht.tapestry`) and Chord with proximity fingers
(:mod:`repro.dht.chord_pfs`).  A side stack states only its forwarding
and ownership rules: its lookup is :meth:`DHTNetwork._walk` over a step
function, finished by :meth:`DHTNetwork._routed`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.metrics.spans import HopRecord, LookupSpan, SpanRecorder
from repro.topology.base import LatencyModel
from repro.util.validation import require

__all__ = ["RouteResult", "DHTNetwork", "StorageListener", "ZeroLatency"]


@runtime_checkable
class StorageListener(Protocol):
    """Storage layer notified when a network's membership changes.

    ``drop_peer_state`` is called for every peer of a ``remove_peers``
    wave (the departed peer's disk is gone with it); listeners that also
    define ``on_revive(peers)`` hear about ``revive_peers`` waves — the
    replication layer replays hinted-handoff queues there.  Listeners
    that define ``on_graceful_leave(peers)`` additionally hear about
    *announced* departures (``remove_peers(..., graceful=True)``)
    before the departing disks are dropped, so they can hand keys and
    hints off to the peers' successors while the data still exists.
    """

    def drop_peer_state(self, peer: int) -> None: ...


class ZeroLatency(LatencyModel):
    """Latency model that reports 0 ms for every pair.

    Useful when only hop counts matter (several unit tests) or when no
    topology is attached to a network.
    """

    def pair(self, u: int, v: int) -> float:
        return 0.0

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return np.zeros(len(us), dtype=np.float64)


@dataclass
class RouteResult:
    """Outcome of routing one key from one source peer.

    Attributes
    ----------
    source:
        Originating peer index.
    key:
        The looked-up identifier.
    owner:
        Peer index of the node responsible for ``key`` (the global
        successor of the key for ring DHTs).
    path:
        Peer indices visited, starting with ``source`` and ending with
        ``owner``; ``len(path) - 1`` message forwards were taken.
    latency_ms:
        Sum of per-hop link delays along ``path``.
    hops_per_layer:
        For hierarchical routing, hops taken in each layer, ordered from
        the **lowest** layer (searched first) up to layer 1 (the global
        ring).  Flat DHTs report a single-element list.
    success:
        Whether the lookup reached the key's (live) owner.  Plain
        ``route`` always succeeds; the failure-aware ``route_lossy``
        mode reports lookups that died mid-route.
    timeouts:
        Number of timed-out contact attempts paid along the way (0 on
        the fault-free path).
    retry_latency_ms:
        Total timeout/backoff penalty, *excluded* from ``latency_ms``
        so link-delay analyses are unaffected; see
        :attr:`total_latency_ms`.
    """

    source: int
    key: int
    owner: int
    path: list[int]
    latency_ms: float
    hops_per_layer: list[int] = field(default_factory=list)
    success: bool = True
    timeouts: int = 0
    retry_latency_ms: float = 0.0

    @property
    def hops(self) -> int:
        """Number of message forwards (``len(path) - 1``)."""
        return len(self.path) - 1

    @property
    def total_latency_ms(self) -> float:
        """Link delays plus timeout penalties — the user-visible wait."""
        return self.latency_ms + self.retry_latency_ms

    @property
    def low_layer_hops(self) -> int:
        """Hops taken below the global ring (0 for flat DHTs)."""
        if len(self.hops_per_layer) <= 1:
            return 0
        return sum(self.hops_per_layer[:-1])

    @property
    def top_layer_hops(self) -> int:
        """Hops taken in the global (highest) ring."""
        if not self.hops_per_layer:
            return self.hops
        return self.hops_per_layer[-1]


class DHTNetwork(ABC):
    """Interface every routing stack implements.

    Peers are integers ``0..n_peers-1``; keys live in the network's
    identifier space.  ``route`` must be deterministic given the
    network state.

    Observability (DESIGN.md §7): every stack carries a ``metrics``
    slot, ``None`` by default.  When a
    :class:`~repro.metrics.spans.SpanRecorder` is attached via
    :meth:`enable_tracing`, instrumented ``route``/``route_lossy``
    implementations emit one :class:`~repro.metrics.spans.LookupSpan`
    per lookup, with per-hop ring layers and link delays.  The
    uninstrumented path pays a single ``is None`` check — span inputs
    (per-hop latencies, layer labels) are only built after the guard.
    """

    #: Per-lookup span recorder; ``None`` disables collection entirely.
    metrics: SpanRecorder | None = None

    #: Registry scope and span ``network`` name of this stack's lookups.
    span_label: str

    #: Per-hop delay source of :meth:`_routed`.
    latency: LatencyModel

    #: Storage layers notified on membership waves (see attach_store).
    _stores: tuple[StorageListener, ...] = ()

    # ------------------------------------------------------------------
    # storage attachment
    # ------------------------------------------------------------------
    def attach_store(self, store: StorageListener) -> StorageListener:
        """Subscribe a storage layer to membership waves.

        After attachment, every ``remove_peers`` wave calls the store's
        ``drop_peer_state`` for each departed peer (its disk leaves with
        it), and every ``revive_peers`` wave calls ``on_revive`` when
        the store defines it — callers no longer have to remember to
        mirror membership into storage per peer.
        """
        self._stores = (*self._stores, store)
        return store

    def detach_store(self, store: StorageListener) -> None:
        """Unsubscribe a previously-attached storage layer."""
        self._stores = tuple(s for s in self._stores if s is not store)

    def _notify_removed(self, peers: Iterable[int]) -> None:
        """Fan a remove wave out to attached stores (disks are gone)."""
        for store in self._stores:
            for peer in peers:
                store.drop_peer_state(int(peer))

    def _notify_departing(self, peers: Iterable[int]) -> None:
        """Announce a graceful leave to stores *before* disks drop.

        Called by ``remove_peers(..., graceful=True)`` after the
        membership flip (so successors are already re-assigned) but
        before ``_notify_removed`` destroys the departing disks; stores
        that define ``on_graceful_leave`` hand keys off there.
        """
        peer_list = [int(p) for p in peers]
        for store in self._stores:
            on_leave = getattr(store, "on_graceful_leave", None)
            if on_leave is not None:
                on_leave(peer_list)

    def _notify_revived(self, peers: Iterable[int]) -> None:
        """Fan a revive wave out to stores that listen for rejoins."""
        peer_list = [int(p) for p in peers]
        for store in self._stores:
            on_revive = getattr(store, "on_revive", None)
            if on_revive is not None:
                on_revive(peer_list)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_tracing(self, recorder: SpanRecorder) -> SpanRecorder:
        """Attach a span recorder; every subsequent lookup is traced."""
        self.metrics = recorder
        return recorder

    def disable_tracing(self) -> None:
        """Detach the recorder — routing reverts to the zero-cost path."""
        self.metrics = None

    def record_route(
        self,
        label: str,
        result: "RouteResult",
        *,
        layers: list[int] | None = None,
        rings: list[str] | None = None,
    ) -> None:
        """Build and record the span of one finished lookup.

        ``layers``/``rings`` give each hop's ring layer and ring name;
        flat DHTs omit them (every hop runs in the single global ring).
        Callers must have checked ``self.metrics is not None`` — this
        method assumes a live recorder.
        """
        n = len(result.path) - 1
        if layers is None:
            layers = [1] * n
        if rings is None:
            rings = ["global"] * n
        latency: LatencyModel | None = getattr(self, "latency", None)
        hops: list[HopRecord] = []
        for i in range(n):
            u, v = result.path[i], result.path[i + 1]
            delay = float(latency.pair(u, v)) if latency is not None else 0.0
            hops.append(
                HopRecord(
                    index=i, src=u, dst=v, layer=layers[i], ring=rings[i],
                    latency_ms=delay,
                )
            )
        self.metrics.record(
            LookupSpan(
                network=label,
                source=result.source,
                key=result.key,
                owner=result.owner,
                success=result.success,
                hops=hops,
                timeouts=result.timeouts,
                retry_latency_ms=result.retry_latency_ms,
            )
        )

    def hop_layer_info(self, result: "RouteResult") -> tuple[list[int], list[str]]:
        """Per-hop ``(layers, rings)`` labels for one finished lookup.

        The default covers flat DHTs — every hop runs in the single
        global ring.  Hierarchical stacks override this to recover the
        ring each path edge ran in (spans, ``explain_route``).
        """
        n = len(result.path) - 1
        return [1] * n, ["global"] * n

    @property
    @abstractmethod
    def n_peers(self) -> int:
        """Current number of peers."""

    @abstractmethod
    def owner_of(self, key: int) -> int:
        """Peer index responsible for ``key``."""

    @abstractmethod
    def route(self, source: int, key: int) -> RouteResult:
        """Route ``key`` starting from peer ``source``."""

    # ------------------------------------------------------------------
    def route_latency(self, latency: LatencyModel, path: list[int]) -> float:
        """Sum link delays along a peer path (vectorised)."""
        if len(path) < 2:
            return 0.0
        arr = np.asarray(path, dtype=np.int64)
        return float(latency.pairs(arr[:-1], arr[1:]).sum())

    def _walk(self, source: int, step: Callable[[int], int | None]) -> list[int]:
        """Peers one lookup visits from ``source``: the side stacks' one scalar route.

        ``step`` is the stack's forwarding rule for this lookup: the
        peer the current one hands the message to, or ``None`` where the
        lookup ends.  A deterministic step that revisits a peer never
        ends, so a path longer than :attr:`n_peers` is a stall.
        """
        path = [int(source)]
        limit = self.n_peers
        while (nxt := step(path[-1])) is not None:
            path.append(nxt)
            require(len(path) <= limit, f"{self.span_label} routing stalled at peer {nxt}")
        return path

    def _routed(
        self, source: int, key: int, path: list[int], hops_per_layer: list[int] | None = None
    ) -> RouteResult:
        """The :class:`RouteResult` of a finished :meth:`_walk`, recorded when traced."""
        result = RouteResult(
            source=source,
            key=key,
            owner=path[-1],
            path=path,
            latency_ms=self.route_latency(self.latency, path),
            hops_per_layer=[len(path) - 1] if hops_per_layer is None else hops_per_layer,
        )
        if self.metrics is not None:
            layers, rings = self.hop_layer_info(result)
            self.record_route(self.span_label, result, layers=layers, rings=rings)
        return result
