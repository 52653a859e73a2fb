"""Fault-aware replicated storage over either trace-driven stack.

:class:`ReplicatedStore` is the storage layer the lookups exist for
(§3.2's "location information").  Every operation *routes*:
``put``/``get`` reach the key's owner via the network's failure-aware
``route_lossy`` under a :class:`~repro.faults.injector.FaultInjector`
(paying hops, timeouts and retry penalties), and then fan out to the
replica group one modelled contact at a time, each charged through the
same injector.  Without an
injector the store degrades gracefully to the plain ``route`` path with
always-successful contacts (the deterministic fault-free baseline).

The consistency discipline comes from the frozen
:class:`~repro.replication.policy.ReplicationPolicy`:

* **chain** — writes propagate owner→successors along the placement
  order and abort on the first broken link; reads contact the chain
  tail (an unreachable tail fails the read).
* **quorum** — writes succeed on ``W`` acks, reads on ``R`` responses;
  reads return the freshest version seen, detect staleness (responses
  disagreeing on version) and repair stale replicas in place.

Writes are **versioned** by a store-wide monotonic clock, which is what
makes staleness observable: a replica that missed an update holds an
older version, a read comparing versions can both count and fix it.
**Hinted handoff** (policy knob) queues the ``(key, value, version)``
a crashed replica missed and replays the queue when the peer rejoins —
either through a fault-plan ``revive`` event (seen by
:meth:`ReplicatedStore.advance_to`) or a membership-level
``revive_peers`` wave (delivered by the network when the store is
attached via :meth:`~repro.dht.base.DHTNetwork.attach_store`).

Everything is seed-deterministic: contact randomness lives in the
injector's seeded stream, iteration over store state is sorted, and no
wall clock is consulted.  Observability follows the DESIGN.md §7
contract — with no recorder attached every operation pays ``is None``
checks only; with one attached the routing layer emits spans as usual
and the store counts guarded ``replication.*`` registry events, while
the per-op :class:`ReplicaContact` records are always returned on the
result objects (plain dataclass appends, no registry involved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.dht.base import RouteResult
from repro.faults.injector import FaultInjector, LossyContext
from repro.metrics.spans import SpanRecorder
from repro.replication.placement import group_at, groups_at, replica_group
from repro.replication.policy import ReplicationPolicy
from repro.util.validation import require

__all__ = [
    "GetResult",
    "PutResult",
    "ReplicaContact",
    "ReplicatedStore",
    "ReplicationStats",
]


@dataclass(frozen=True)
class ReplicaContact:
    """One modelled contact of a replica during a put/get.

    ``role`` is ``"chain"`` / ``"write"`` / ``"read"`` / ``"tail"``;
    local writes/reads at the coordinator itself appear with
    ``peer == src`` and zero cost (no message crossed the network).
    """

    src: int
    peer: int
    role: str
    ok: bool
    timeouts: int
    retry_latency_ms: float
    link_latency_ms: float


@dataclass
class ReplicationStats:
    """Always-on operation counters (plain integer adds)."""

    puts: int = 0
    put_successes: int = 0
    routed_put_failures: int = 0
    chain_aborts: int = 0
    gets: int = 0
    get_successes: int = 0
    routed_get_failures: int = 0
    stale_reads: int = 0
    read_repairs: int = 0
    lost_reads: int = 0
    replicas_written: int = 0
    replica_contacts: int = 0
    contact_failures: int = 0
    hints_queued: int = 0
    hints_replayed: int = 0
    graceful_handoffs: int = 0
    rebalanced: int = 0

    def as_dict(self) -> dict[str, float]:
        """Stable JSON-safe dump (used by BENCH_durability)."""
        return {
            "puts": float(self.puts),
            "put_successes": float(self.put_successes),
            "routed_put_failures": float(self.routed_put_failures),
            "chain_aborts": float(self.chain_aborts),
            "gets": float(self.gets),
            "get_successes": float(self.get_successes),
            "routed_get_failures": float(self.routed_get_failures),
            "stale_reads": float(self.stale_reads),
            "read_repairs": float(self.read_repairs),
            "lost_reads": float(self.lost_reads),
            "replicas_written": float(self.replicas_written),
            "replica_contacts": float(self.replica_contacts),
            "contact_failures": float(self.contact_failures),
            "hints_queued": float(self.hints_queued),
            "hints_replayed": float(self.hints_replayed),
            "graceful_handoffs": float(self.graceful_handoffs),
            "rebalanced": float(self.rebalanced),
        }


class _Cost:
    """What one put or get cost: the routed path plus each replica contact."""

    route: RouteResult | None
    contacts: list[ReplicaContact]

    @property
    def hops(self) -> int:
        """Routing hops plus successful replica-fan-out messages."""
        routed = self.route.hops if self.route is not None else 0
        return routed + sum(1 for c in self.contacts if c.ok and c.peer != c.src)

    @property
    def latency_ms(self) -> float:
        """Link delays: the routed path plus each replica contact."""
        routed = self.route.latency_ms if self.route is not None else 0.0
        return routed + sum(c.link_latency_ms for c in self.contacts)

    @property
    def retry_latency_ms(self) -> float:
        routed = self.route.retry_latency_ms if self.route is not None else 0.0
        return routed + sum(c.retry_latency_ms for c in self.contacts)

    @property
    def total_latency_ms(self) -> float:
        """Link delays plus timeout penalties — the user-visible wait."""
        return self.latency_ms + self.retry_latency_ms


@dataclass
class PutResult(_Cost):
    """Outcome of one replicated write."""

    key: int
    version: int
    success: bool
    aborted: bool = False
    acks: int = 0
    route: RouteResult | None = None
    contacts: list[ReplicaContact] = field(default_factory=list)


@dataclass
class GetResult(_Cost):
    """Outcome of one replicated read."""

    key: int
    value: Any
    success: bool
    version: int = -1
    stale: bool = False
    repaired: int = 0
    lost: bool = False
    route: RouteResult | None = None
    contacts: list[ReplicaContact] = field(default_factory=list)


class ReplicatedStore:
    """Replicated KV storage with explicit fault handling.

    Parameters
    ----------
    network:
        A :class:`~repro.dht.chord.ChordNetwork` or
        :class:`~repro.core.hieras.HierasNetwork` (anything with
        ``owner_of``/``route``/``route_lossy``, the ``successor_lists``
        that :mod:`repro.replication.placement` places replicas with,
        and stable peer indices).
    policy:
        Frozen :class:`~repro.replication.policy.ReplicationPolicy`.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; when
        set, routing uses ``route_lossy`` and every replica contact may
        time out.  ``None`` is the fault-free deterministic baseline.

    Attach the store to its network
    (``network.attach_store(store)``) to have membership waves mirrored
    automatically: ``remove_peers`` drops departed disks,
    ``revive_peers`` replays hinted-handoff queues.

    ``put`` is *hash → route →* :meth:`write_at`; :meth:`write_at` and
    :meth:`read_at` start at a peer the caller already reached and take
    the wrapped key id, not the name; :meth:`serve_epoch` is both over
    a whole fault-free serving epoch at once (the serving layer routes
    an epoch in one engine call and hashes each name once).
    """

    def __init__(
        self,
        network: Any,
        policy: ReplicationPolicy,
        *,
        injector: FaultInjector | None = None,
    ) -> None:
        self.network = network
        self.policy = policy
        self.injector = injector
        #: Per-peer disk: peer -> {key -> (value, version)}.
        self._stored: dict[int, dict[int, tuple[Any, int]]] = {}
        #: Latest published value / version per key (audit ground truth).
        self._catalog: dict[int, Any] = {}
        self._latest: dict[int, int] = {}
        #: Hinted handoff: crashed target -> missed (key, value, version).
        self._hints: dict[int, list[tuple[int, Any, int]]] = {}
        self._version_clock = 0
        self.stats = ReplicationStats()
        self.metrics: SpanRecorder | None = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_tracing(self, recorder: SpanRecorder) -> SpanRecorder:
        """Attach a recorder: ``replication.*`` registry counters fire."""
        self.metrics = recorder
        return recorder

    def disable_tracing(self) -> None:
        """Detach the recorder — back to the zero-cost path."""
        self.metrics = None

    def _count(self, name: str, n: int = 1) -> None:
        """Registry-side counter (no-op without a recorder)."""
        if self.metrics is not None:
            self.metrics.registry.inc(name, n)

    # ------------------------------------------------------------------
    # clock / membership
    # ------------------------------------------------------------------
    def advance_to(self, t_ms: float) -> None:
        """Advance the fault clock; revive events replay hint queues."""
        if self.injector is None:
            return
        for event in self.injector.advance_to(t_ms):
            if event.kind == "revive":
                self.on_revive([int(p) for p in event.peers])

    def on_revive(self, peers: list[int]) -> None:
        """Replay hinted-handoff queues for rejoined peers.

        Hints are delivered in the order they were queued; a hint never
        clobbers a newer version the peer already holds (the version
        check in the local write).  Replays are background transfers —
        they charge no routed hops or timeouts.
        """
        for peer in peers:
            for key, value, version in self._hints.pop(int(peer), []):
                self._write_local(int(peer), key, value, version)
                self.stats.hints_replayed += 1
                self._count("replication.hints_replayed")

    def on_graceful_leave(self, peers: list[int]) -> None:
        """Hand departing peers' keys off to their current owners.

        Delivered by ``remove_peers(..., graceful=True)`` after the
        membership flip but *before* the disks drop: every key a
        departing peer holds is copied (value + version) to the key's
        post-departure replica group, so an announced leave loses no
        data the departing node was the last holder of.  Handoffs are
        background transfers — no routed hops, no charged contacts —
        and never clobber newer versions (the local-write version
        check).  The walk is sorted (peers, then keys) for determinism.
        """
        for peer in sorted(int(p) for p in peers):
            disk = self._stored.get(peer)
            if not disk:
                continue
            for key in sorted(disk):
                value, version = disk[key]
                for target in replica_group(self.network, key, self.policy):
                    if int(target) != peer:
                        self._write_local(int(target), key, value, version)
                self.stats.graceful_handoffs += 1
                self._count("replication.graceful_handoffs")

    def rebalance(self) -> int:
        """Re-home every key onto its *current* replica group.

        Membership waves move ownership: after a flash join, a key's
        replica group may name fresh peers that hold nothing, while the
        copies sit on peers no longer responsible.  One rebalance pass
        walks the catalogue (sorted — deterministic), finds the
        freshest copy on any live holder, and writes it to each group
        member that is missing it or holds an older version.  Copies
        are background transfers (no routed hops or charged contacts).
        Returns the number of replica writes performed.
        """
        moved = 0
        disks = sorted(self._stored.items())
        for key in sorted(self._catalog):
            best: tuple[Any, int] | None = None
            for peer, disk in disks:
                if not self._peer_live(peer):
                    continue
                held = disk.get(key)
                if held is not None and (best is None or held[1] > best[1]):
                    best = held
            if best is None:
                continue
            value, version = best
            for target in replica_group(self.network, key, self.policy):
                held = self._read_local(int(target), key)
                if held is None or held[1] < version:
                    self._write_local(int(target), key, value, version)
                    moved += 1
        self.stats.rebalanced += moved
        if moved:
            self._count("replication.rebalanced", moved)
        return moved

    def drop_peer_state(self, peer: int) -> None:
        """Forget a departed peer's disk (its storage is gone).

        Hints queued *for* the peer survive on purpose: they are held by
        other nodes on its behalf (Dynamo-style), so losing its disk
        doesn't destroy them — they replay if the peer ever rejoins.
        """
        self._stored.pop(peer, None)

    def _peer_live(self, peer: int) -> bool:
        """Ground-truth liveness: a member and not currently crashed."""
        if not bool(self.network.is_alive(peer)):
            return False
        return self.injector is None or not self.injector.state.is_dead(peer)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _route(self, source: int, key: int) -> RouteResult:
        if self.injector is None:
            result: RouteResult = self.network.route(source, key)
            return result
        lossy: RouteResult = self.network.route_lossy(
            source, key, injector=self.injector
        )
        return lossy

    def _link_ms(self, u: int, v: int) -> float:
        delay = float(self.network.latency.pair(u, v))
        if self.injector is not None:
            delay *= self.injector.state.delay_factor
        return delay

    def _reach(self, src: int, dst: int, role: str) -> ReplicaContact:
        """One modelled replica contact: free at ``src`` itself, otherwise
        charged through the injector (always answered fault-free)."""
        if src == dst:
            return ReplicaContact(src, dst, role, True, 0, 0.0, 0.0)
        self.stats.replica_contacts += 1
        ctx = LossyContext()
        ok = self.injector is None or self.injector.contact(src, dst, ctx)
        if not ok:
            self.stats.contact_failures += 1
        return ReplicaContact(
            src, dst, role, ok, ctx.timeouts, ctx.retry_latency_ms,
            self._link_ms(src, dst) if ok else 0.0,
        )

    def _write_local(self, peer: int, key: int, value: Any, version: int) -> None:
        """Apply a write at one replica unless it already holds newer."""
        disk = self._stored.setdefault(peer, {})
        held = disk.get(key)
        if held is None or held[1] <= version:
            disk[key] = (value, version)
            self.stats.replicas_written += 1

    def _read_local(self, peer: int, key: int) -> tuple[Any, int] | None:
        return self._stored.get(peer, {}).get(key)

    def _queue_hint(self, peer: int, key: int, value: Any, version: int) -> None:
        if not self.policy.hinted_handoff:
            return
        self._hints.setdefault(peer, []).append((key, value, version))
        self.stats.hints_queued += 1
        self._count("replication.hints_queued")

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, source: int, name: str, value: Any) -> PutResult:
        """Replicated write of ``value`` under ``name`` from ``source``:
        hash, route to the key's owner (failure-aware under an injector),
        then :meth:`write_at` the live peer that answered the lookup.  The
        result carries the route, the per-replica contacts and the version."""
        key = int(self.network.space.hash_key(name))
        route = self._route(source, key)
        if route.success:
            result = self.write_at(int(route.owner), key, value)
        else:
            result = PutResult(key=key, version=self._stamp_put(key, value), success=False)
            self.stats.routed_put_failures += 1
            self._count("replication.routed_put_failures")
        result.route = route
        return result

    def write_at(self, coordinator: int, key: int, value: Any) -> PutResult:
        """:meth:`put` from the coordinator on, for callers that already
        routed ``key`` (the serving layer's epoch call): stamps a version
        and fans out as the policy's consistency mode prescribes; the
        result has no ``route``.  Without an injector a route ends at
        the key's owner, so the coordinator heads the replica group."""
        version = self._stamp_put(key, value)
        owner = coordinator if self.injector is None else int(self.network.owner_of(key))
        group = group_at(self.network, owner, self.policy)
        write = self._chain_write if self.policy.consistency == "chain" else self._quorum_write
        result = write(coordinator, group, key, value, version)
        if result.success:
            self.stats.put_successes += 1
        return result

    def serve_epoch(
        self, puts: list[bool], owners: npt.NDArray[np.int64], keys: list[int], values: list[Any]
    ) -> tuple[list[Any], npt.NDArray[np.float64], list[bool]]:
        """A fault-free serving epoch in dispatch order: lane ``i`` puts
        ``values[i]`` (else gets) key id ``keys[i]`` at ``owners[i]``, where
        its route ended.  Bit for bit :meth:`read_at` / :meth:`write_at`
        lane by lane, but every replica group is placed in one
        :func:`groups_at` call and every fan-out link — owner → replica
        for quorum, down the chain for chain — priced in one
        ``latency.pairs`` call.  Returns per lane the value read, the
        fan-out latency and whether the operation succeeded."""
        require(self.injector is None, "an injector draws each contact: serve puts through put()")
        lanes = np.flatnonzero(puts)
        groups = groups_at(self.network, owners[lanes], self.policy)
        replicas, chain = groups[:, 1:], self.policy.consistency == "chain"
        real = replicas >= 0
        delay = np.zeros(replicas.shape)
        if real.any():
            senders = np.broadcast_to(groups[:, :-1] if chain else groups[:, :1], replicas.shape)
            delay[real] = self.network.latency.pairs(senders[real], replicas[real])
        fanout = np.zeros(len(keys))
        for column in delay.T:  # left to right, as the contacts are summed
            fanout[lanes] += column
        ok = np.ones(len(keys), dtype=bool)
        if not chain:
            ok[lanes] = 1 + real.sum(axis=1) >= self.policy.effective_write_quorum
        self.stats.replica_contacts += int(real.sum())
        self.stats.put_successes += int(ok[lanes].sum())
        read: list[Any] = [None] * len(keys)
        rows = iter(groups.tolist())
        for lane, (put, owner, key, value) in enumerate(zip(puts, owners.tolist(), keys, values)):
            if not put:
                read[lane] = self.read_at(owner, key)
                continue
            version = self._stamp_put(key, value)
            for peer in next(rows):
                if peer >= 0:
                    self._write_local(peer, key, value, version)
        return read, fanout, ok.tolist()

    def _stamp_put(self, key: int, value: Any) -> int:
        """Count a put and publish ``value`` as ``key``'s latest version."""
        self.stats.puts += 1
        self._count("replication.puts")
        self._version_clock += 1
        self._catalog[key] = value
        self._latest[key] = self._version_clock
        return self._version_clock

    def _chain_write(
        self, coordinator: int, group: list[int], key: int, value: Any, version: int
    ) -> PutResult:
        """Head→tail propagation; the first broken link aborts the write."""
        contacts: list[ReplicaContact] = []
        prev = coordinator
        for peer in group:
            contacts.append(self._reach(prev, peer, "chain"))
            if not contacts[-1].ok:
                self.stats.chain_aborts += 1
                self._count("replication.chain_aborts")
                self._queue_hint(peer, key, value, version)
                break
            self._write_local(peer, key, value, version)
            prev = peer
        aborted = not contacts[-1].ok
        return PutResult(
            key=key, version=version, success=not aborted, aborted=aborted,
            acks=sum(c.ok for c in contacts), contacts=contacts,
        )

    def _quorum_write(
        self, coordinator: int, group: list[int], key: int, value: Any, version: int
    ) -> PutResult:
        """Coordinator fan-out; succeeds on ``W`` acks, hints the rest."""
        contacts: list[ReplicaContact] = []
        for peer in group:
            contacts.append(self._reach(coordinator, peer, "write"))
            if contacts[-1].ok:
                self._write_local(peer, key, value, version)
            else:
                self._queue_hint(peer, key, value, version)
        acks = sum(c.ok for c in contacts)
        return PutResult(
            key=key, version=version, success=acks >= self.policy.effective_write_quorum,
            acks=acks, contacts=contacts,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, source: int, name: str) -> GetResult:
        """Replicated read of ``name`` from ``source``.

        Chain mode contacts the chain tail (the one node guaranteed to
        hold every committed write); quorum mode gathers ``R``
        responses, returns the freshest, and **repairs** stale or
        missing copies among the responders.  ``lost`` is set when the
        read completed but no contacted replica held a key the store
        has published — observable data loss.
        """
        key = int(self.network.space.hash_key(name))
        self.stats.gets += 1
        self._count("replication.gets")
        route = self._route(source, key)
        if not route.success:
            self.stats.routed_get_failures += 1
            self._count("replication.routed_get_failures")
            return GetResult(key=key, value=None, success=False, route=route)
        group = replica_group(self.network, key, self.policy)
        coordinator = int(route.owner)
        if self.policy.consistency == "chain":
            result = self._chain_read(coordinator, group, key, route)
        else:
            result = self._quorum_read(coordinator, group, key, route)
        if result.success:
            self.stats.get_successes += 1
            if result.value is None and key in self._catalog:
                result.lost = True
                self.stats.lost_reads += 1
                self._count("replication.lost_reads")
        return result

    def _chain_read(
        self, coordinator: int, group: list[int], key: int, route: RouteResult
    ) -> GetResult:
        """Read at the chain tail; an unreachable tail fails the read."""
        contact = self._reach(coordinator, group[-1], "tail")
        if not contact.ok:
            return GetResult(key=key, value=None, success=False, route=route, contacts=[contact])
        value, version = self._read_local(group[-1], key) or (None, -1)
        return GetResult(
            key=key, value=value, success=True, version=version,
            route=route, contacts=[contact],
        )

    def _quorum_read(
        self, coordinator: int, group: list[int], key: int, route: RouteResult
    ) -> GetResult:
        """Gather ``R`` responses; return the freshest, repair the stale."""
        needed = self.policy.effective_read_quorum
        contacts: list[ReplicaContact] = []
        responses: list[tuple[int, tuple[Any, int] | None]] = []
        for peer in group:
            if len(responses) >= needed:
                break
            contacts.append(self._reach(coordinator, peer, "read"))
            if contacts[-1].ok:
                responses.append((peer, self._read_local(peer, key)))
        if len(responses) < needed:
            return GetResult(
                key=key, value=None, success=False, route=route, contacts=contacts,
            )
        freshest: tuple[Any, int] | None = None
        for _, held in responses:
            if held is not None and (freshest is None or held[1] > freshest[1]):
                freshest = held
        stale = False
        repaired = 0
        if freshest is not None:
            value, version = freshest
            for peer, held in responses:
                if held is None or held[1] < version:
                    stale = True
                    self._write_local(peer, key, value, version)
                    repaired += 1
                    self.stats.read_repairs += 1
                    self._count("replication.read_repairs")
            if stale:
                self.stats.stale_reads += 1
                self._count("replication.stale_reads")
        else:
            value, version = None, -1
        return GetResult(
            key=key, value=value, success=True, version=version, stale=stale,
            repaired=repaired, route=route, contacts=contacts,
        )

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------
    def loss_audit(self) -> dict[str, float]:
        """Ground-truth durability census over the whole catalogue.

        A key is **lost** when no live peer holds any version of it,
        **stale-only** when live copies exist but none carries the
        latest published version, and **intact** otherwise.  The walk
        is sorted (keys, then peers) so the audit is deterministic.
        """
        lost = stale_only = intact = 0
        disks = sorted(self._stored.items())
        for key in sorted(self._catalog):
            latest = self._latest[key]
            best = -1
            for peer, disk in disks:
                if not self._peer_live(peer):
                    continue
                held = disk.get(key)
                if held is not None and held[1] > best:
                    best = held[1]
            if best < 0:
                lost += 1
            elif best < latest:
                stale_only += 1
            else:
                intact += 1
        n = len(self._catalog)
        return {
            "keys": float(n),
            "lost": float(lost),
            "stale_only": float(stale_only),
            "intact": float(intact),
            "loss_probability": lost / n if n else 0.0,
            "stale_probability": stale_only / n if n else 0.0,
        }

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def read_at(self, peer: int, key: int) -> Any:
        """The copy of ``key`` held locally by ``peer`` (None if absent).

        A zero-cost local read — no routing, no charged contact — for
        callers that already reached ``peer`` by other means (the
        serving layer's coalesced lookups resolve owners through the
        batch engine and then read the owner's disk in place).
        """
        held = self._read_local(int(peer), key)
        return held[0] if held is not None else None

    def seed_key(self, name: str, value: Any) -> int:
        """Pre-load ``name`` onto its replica group without routing.

        A bootstrap helper for serving experiments: stamps a version,
        updates the audit catalogue, and writes the replica group's
        disks directly (no routed hops, no charged contacts; only
        ``replicas_written`` ticks).  Returns the version stamped.
        """
        key = int(self.network.space.hash_key(name))
        self._version_clock += 1
        version = self._version_clock
        self._catalog[key] = value
        self._latest[key] = version
        for peer in replica_group(self.network, key, self.policy):
            self._write_local(int(peer), key, value, version)
        return version

    def version_of(self, name: str) -> int:
        """Latest published version of ``name`` (-1 if never put)."""
        key = int(self.network.space.hash_key(name))
        return self._latest.get(key, -1)

    def __len__(self) -> int:
        return len(self._catalog)
