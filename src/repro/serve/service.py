"""`DHTService`: a request-queue front-end over the trace-driven stacks.

The service closes the gap between "a routing library" and "a thing
that serves": clients submit :class:`~repro.serve.request.Request`
records (``get``/``put``/``join``/``leave``) which cross an explicit
queue boundary and are dispatched by a pool of ``workers`` slots on a
**deterministic simulated clock** — no wall time is consulted anywhere
(reprolint DET002 covers this package), so a run is a pure function of
the request sequence and the network state.

Queueing model
--------------
Arrivals are open-loop (the load generator decides times; completions
never gate them).  Admission control happens at the door: when
``queue_limit`` is set and the pending queue is full, the arrival is
rejected immediately (load shedding).  Dispatch is work-conserving
FIFO with **read coalescing**: when the oldest pending request is a
``get``, the dispatcher collects up to ``max_batch`` pending gets into
one dispatch, whose overhead amortizes across the batch.  Coalescing
belongs to the *simulated* dispatcher: it sets worker occupancy and
``serve.batch_size``, not the width the host routes at (below).
Writes dispatch one at a time when they reach the head and fan out
through :class:`~repro.replication.store.ReplicatedStore`; membership
waves apply the network's batch mutation primitives.

A worker slot is occupied for the *dispatch cost* only
(``dispatch_overhead_ms`` + marginal per-request cost): the front-end
is modelled async, so network time — routing hops, replica fan-out —
runs off-worker and lands in the request's latency, not the service's
capacity.  Saturation therefore arrives when offered load exceeds
``workers / mean_dispatch_cost``, and coalescing moves that knee by
shrinking the mean cost per lookup.

Schedule, then resolve per membership epoch
-------------------------------------------
Occupancy depends on the batch size alone, so the event loop reads no
route result: it only *schedules*, appending every dispatched request
— and every completion that is final already (``rejected``,
``deadline``, a departed source's ``failed``) — to one completion log
in dispatch order.  A route is a function of (source, key, membership)
and membership changes only at a ``join``/``leave``, so the log is
*resolved* once per membership epoch: one
:func:`repro.engine.batch_route` call over every logged get **and put**,
then a replay in dispatch order that hands the store what the call
answered — a lane's (key id, owner, route latency) goes to ``read_at`` /
``write_at``, so nothing is routed, hashed or located twice — and builds
the completions.  It is exact: the engine returns the scalar walk's
owner and latency bit for bit, and read-your-writes and hint /
disk-drop ordering fall where per-dispatch routing put them.  Only a
store under a fault injector keeps its puts off the engine call: a
lossy route is scalar and draws from the injector's stream, so the
replay calls ``store.put`` and the draws stay in dispatch order.  The
log is flushed before a wave touches the network, at the end of the
run, and at ``_MAX_LANES`` logged lanes (bounded memory on any stream).
With a span recorder on the *network*, the epoch's one ``record_batch``
folds gets and puts alike, in dispatch order.

Every completion contributes a four-phase latency breakdown (queue wait
→ dispatch service → route → replica fan-out) to the service's always-on
:class:`~repro.metrics.registry.MetricsRegistry` — the registry *is* the
product here (the SLO reporter reads it) — folded in bulk, in dispatch
order, when the run ends.  ``serve.engine_calls`` / ``serve.engine_lanes``
show the host's width beside the simulated ``serve.batches``.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

from repro.engine import batch_route
from repro.metrics.registry import MetricsRegistry
from repro.replication.store import ReplicatedStore
from repro.serve.config import ServiceConfig
from repro.serve.request import OPS, Completion, Request
from repro.util.validation import require

__all__ = ["DHTService", "ServeResult"]

#: Lanes the completion log holds before it is resolved: the engine's
#: design width (``stream_batch_route``'s default chunk).
_MAX_LANES = 65_536


@dataclass
class ServeResult:
    """Everything one :meth:`DHTService.run` produced.

    ``completions`` is ordered by request sequence number (arrival
    order), regardless of the order requests finished in.
    ``makespan_ms`` is the simulated instant the last dispatch
    completed (the workers went idle) — the denominator for achieved
    throughput, so a backlog that drains long after the offered window
    closes is charged for its drain time.  Responses may still be in
    flight at that instant; their network time is the *request's*
    latency, not the service's capacity.
    """

    config: ServiceConfig
    completions: list[Completion]
    registry: MetricsRegistry
    makespan_ms: float
    max_queue_depth: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def served(self) -> int:
        """Requests that completed successfully."""
        return self.counts.get("ok", 0)

    @property
    def rejected(self) -> int:
        """Arrivals turned away by admission control."""
        return self.counts.get("rejected", 0)

    @property
    def throughput_per_s(self) -> float:
        """Achieved throughput over the makespan (requests/second)."""
        if self.makespan_ms <= 0.0:
            return 0.0
        return 1000.0 * self.served / self.makespan_ms


#: A queued entry: (sequence number, request).
_Entry = tuple[int, Request]
#: A dispatched get/put awaiting its route: (sequence number, request,
#: dispatch instant, worker occupancy, batch size).
_Dispatched = tuple[int, Request, float, float, int]


@dataclass
class _Run:
    """State of one :meth:`DHTService.run`: the scheduler's (free-at,
    worker) ``heap`` and FIFO queues, and the completion log in dispatch
    order — ``pending`` is what was logged since the last flush (final
    completions and dispatched requests, those in ``routed`` awaiting
    the engine) until :meth:`DHTService._resolve` moves it to ``done``.
    """

    heap: list[tuple[float, int]]
    gets: deque[_Entry] = field(default_factory=deque)
    others: deque[_Entry] = field(default_factory=deque)
    done: list[Completion] = field(default_factory=list)
    pending: list[Completion | _Dispatched] = field(default_factory=list)
    routed: list[Request] = field(default_factory=list)


class DHTService:
    """Serve ``get``/``put``/``join``/``leave`` over a DHT stack.

    Parameters
    ----------
    network:
        A :class:`~repro.dht.chord.ChordNetwork` or
        :class:`~repro.core.hieras.HierasNetwork` (anything the batch
        engine routes over, with ``is_alive`` / batch membership).
    config:
        Frozen :class:`~repro.serve.config.ServiceConfig`.
    store:
        Optional :class:`~repro.replication.store.ReplicatedStore` over
        this same ``network`` (checked); when present, ``put`` fans out
        through it and ``get`` returns the owner's local copy.  Without
        one, both ops are pure owner lookups (the service still charges
        write-shaped dispatch cost for puts).  Attach the store to the network
        (``network.attach_store``) if membership waves should drop
        disks / replay hints.
    registry:
        Metrics sink; a fresh :class:`MetricsRegistry` by default.  The
        serving layer is the measurement plane, so recording is always
        on (``serve.*`` counters and phase histograms).
    """

    def __init__(
        self,
        network: Any,
        *,
        config: ServiceConfig | None = None,
        store: ReplicatedStore | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if store is not None:
            require(
                store.network is network,
                f"the store replicates over the {store.network.span_label} network of "
                f"{store.network.n_peers} peers, not the {network.span_label} network of "
                f"{network.n_peers} peers this service serves",
            )
        self.network = network
        self.config = config if config is not None else ServiceConfig()
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Key-name → wrapped id cache (Zipf workloads reuse names heavily).
        self._key_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _key_of(self, name: str) -> int:
        key = self._key_cache.get(name)
        if key is None:
            key = self._key_cache[name] = int(self.network.space.hash_key(name))
        return key

    def _occupancy_ms(self, op: str, n_routed: int) -> float:
        """Worker time one dispatch call consumes (the cost model)."""
        cfg = self.config
        if n_routed == 0:
            return 0.0
        if op == "get":
            return cfg.dispatch_overhead_ms + n_routed * cfg.per_lookup_ms
        if op == "put":
            return cfg.dispatch_overhead_ms + cfg.per_write_ms
        return cfg.dispatch_overhead_ms + cfg.per_membership_ms

    def _validate(self, requests: list[Request]) -> None:
        """Reject a bad stream whole, before anything is served (and while
        the error can still name the request: resolution is deferred)."""
        last_at = 0.0
        for seq, req in enumerate(requests):
            require(req.at_ms >= last_at, "requests must be sorted by at_ms")
            last_at = req.at_ms
            for peer in (req.source,) if req.op in ("get", "put") else req.peers:
                try:
                    self.network.is_alive(peer)
                except ValueError as exc:
                    raise ValueError(f"request {seq} ({req.op}): {exc}") from None

    def _fold(self, done: list[Completion]) -> None:
        """Fold a run's completions, in dispatch order, into the registry."""
        reg = self.registry
        tally = Counter(
            name
            for c in done
            for name in ("serve.arrivals", f"serve.{c.op}.arrivals", f"serve.{c.outcome}")
        )
        for name, n in tally.items():
            reg.inc(name, n)
        # A rejected or shed request never reached the later phases.
        reached = [c for c in done if c.outcome in ("ok", "failed")]
        totals = [c.total_ms for c in reached]
        columns = {
            "serve.shed_wait_ms": [c.queue_wait_ms for c in done if c.outcome == "deadline"],
            "serve.total_ms": totals,
            "serve.queue_wait_ms": [c.queue_wait_ms for c in reached],
            "serve.service_ms": [c.service_ms for c in reached],
            "serve.route_ms": [c.route_ms for c in reached],
            "serve.fanout_ms": [c.fanout_ms for c in reached],
        }
        for op in OPS:
            columns[f"serve.{op}.total_ms"] = [t for t, c in zip(totals, reached) if c.op == op]
        for name, values in columns.items():
            if values:
                reg.histogram(name).record_many(values)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServeResult:
        """Serve an arrival-ordered request sequence to completion.

        Requests must be sorted by ``at_ms``, and every source and wave
        peer must be a peer index of the network; a stream that is not
        raises before anything is served.  The loop interleaves
        arrivals with dispatches in simulated-time order: before each
        arrival every worker that frees up earlier gets to drain the
        queue, then admission control sees the true queue depth at the
        arrival instant.  After the last arrival the backlog drains.
        """
        cfg = self.config
        self._validate(requests)
        run = _Run(heap=[(0.0, w) for w in range(cfg.workers)])
        gets, others = run.gets, run.others
        max_depth = 0
        for seq, req in enumerate(requests):
            self._drain(run, req.at_ms)
            depth = len(gets) + len(others)
            if cfg.queue_limit is not None and depth >= cfg.queue_limit:
                run.pending.append(
                    Completion(
                        seq=seq, op=req.op, outcome="rejected",
                        arrival_ms=req.at_ms, finish_ms=req.at_ms,
                    )
                )
                continue
            (gets if req.op == "get" else others).append((seq, req))
            if depth + 1 > max_depth:
                max_depth = depth + 1
            self._drain(run, req.at_ms)
        self._drain(run, math.inf)
        self._resolve(run)
        last_at = requests[-1].at_ms if requests else 0.0
        makespan = max([last_at] + [busy_until for busy_until, _ in run.heap])
        self._fold(run.done)
        out = sorted(run.done, key=lambda c: c.seq)
        self.registry.set_gauge("serve.max_queue_depth", float(max_depth))
        self.registry.set_gauge("serve.makespan_ms", makespan)
        return ServeResult(
            config=cfg,
            completions=out,
            registry=self.registry,
            makespan_ms=makespan,
            max_queue_depth=max_depth,
            counts=dict(Counter(c.outcome for c in out)),
        )

    def _drain(self, run: _Run, until: float) -> None:
        """Dispatch until the queue is empty or no worker frees by ``until``."""
        heap = run.heap
        while (run.gets or run.others) and heap[0][0] <= until:
            free_at, worker = heapq.heappop(heap)
            heapq.heappush(heap, (self._dispatch_one(run, free_at), worker))
            if len(run.routed) >= _MAX_LANES:
                self._resolve(run)

    @staticmethod
    def _head_is_get(gets: deque[_Entry], others: deque[_Entry]) -> bool:
        if not others:
            return True
        if not gets:
            return False
        return gets[0][0] < others[0][0]

    @staticmethod
    def _unserved(seq: int, req: Request, outcome: str, now: float) -> Completion:
        """A request dropped at dispatch: shed, or its source has left."""
        return Completion(
            seq=seq, op=req.op, outcome=outcome,
            arrival_ms=req.at_ms, dispatch_ms=now, finish_ms=now,
            queue_wait_ms=now - req.at_ms,
        )

    def _take(self, run: _Run, free_at: float) -> list[_Entry]:
        """Form the next dispatch batch, shedding expired requests.

        Returns the (non-empty) batch, or ``[]`` when shedding emptied
        the queue.  A get at the head coalesces up to ``max_batch``
        pending gets (oldest first); any other op dispatches alone.
        """
        gets, others = run.gets, run.others
        deadline = self.config.deadline_ms
        while gets or others:
            if self._head_is_get(gets, others):
                batch: list[_Entry] = []
                while gets and len(batch) < self.config.max_batch:
                    seq, req = gets.popleft()
                    now = max(free_at, req.at_ms)
                    if deadline is not None and now - req.at_ms > deadline:
                        run.pending.append(self._unserved(seq, req, "deadline", now))
                        continue
                    batch.append((seq, req))
                if batch:
                    return batch
                continue
            seq, req = others.popleft()
            now = max(free_at, req.at_ms)
            if deadline is not None and now - req.at_ms > deadline:
                run.pending.append(self._unserved(seq, req, "deadline", now))
                continue
            return [(seq, req)]
        return []

    def _dispatch_one(self, run: _Run, free_at: float) -> float:
        """Dispatch one batch (or single op); returns the worker's busy-until."""
        batch = self._take(run, free_at)
        if not batch:
            return free_at
        now = max(free_at, batch[0][1].at_ms)
        op = batch[0][1].op
        if op in ("join", "leave"):
            return self._dispatch_membership(run, now, batch[0])
        # A get or put whose source has left fails here; the rest of the
        # batch is logged for its epoch's engine call.
        live: list[_Entry] = []
        for seq, req in batch:
            if self.network.is_alive(req.source):
                live.append((seq, req))
            else:
                run.pending.append(self._unserved(seq, req, "failed", now))
        if not live:
            return now
        occupancy = self._occupancy_ms(op, len(live))
        if op == "get":
            self.registry.inc("serve.batches")
            self.registry.inc("serve.batched_lookups", len(live))
            self.registry.observe("serve.batch_size", float(len(live)))
        run.pending.extend((seq, req, now, occupancy, len(live)) for seq, req in live)
        # A put under an injector is the store's to route: scalar, seeded draws.
        if op == "get" or self.store is None or self.store.injector is None:
            run.routed.extend(req for _, req in live)
        return now + occupancy

    # -- resolve: one engine call per epoch, then an in-order replay ----
    def _resolve(self, run: _Run) -> None:
        """Turn ``run.pending`` into completions under the current
        membership: one engine call for every logged get and put (but a
        lossy store's puts), then the store operations in dispatch order."""
        store, routed = self.store, run.routed
        keys = [self._key_of(req.name) for req in routed]
        owners: list[int] = []
        latency: list[float] = []
        if routed:
            result = batch_route(self.network, [req.source for req in routed], keys)
            owners, latency = result.owner.tolist(), result.latency_ms.tolist()
            self.registry.inc("serve.engine_calls")
            self.registry.inc("serve.engine_lanes", len(routed))
        lanes = zip(keys, owners, latency)
        for entry in run.pending:
            if isinstance(entry, Completion):
                run.done.append(entry)
                continue
            seq, req, now, occupancy, batch_size = entry
            outcome, value, fanout_ms = "ok", None, 0.0
            if req.op == "put" and store is not None and store.injector is not None:
                put = store.put(req.source, req.name, req.value)
                route = put.route
                route_ms = route.latency_ms + route.retry_latency_ms if route is not None else 0.0
                fanout_ms = put.total_latency_ms - route_ms
                outcome = "ok" if put.success else "failed"
                owner = int(route.owner) if route is not None else -1
            else:
                key, owner, route_ms = next(lanes)
                if store is not None and req.op == "get":
                    value = store.read_at(owner, key)
                elif store is not None:
                    put = store.write_at(owner, key, req.value)
                    # Total minus route in the float order ``store.put``'s result sums them.
                    fanout_ms = (route_ms + put.total_latency_ms) - route_ms
                    outcome = "ok" if put.success else "failed"
            run.done.append(
                Completion(
                    seq=seq, op=req.op, outcome=outcome,
                    arrival_ms=req.at_ms, dispatch_ms=now,
                    finish_ms=now + occupancy + route_ms + fanout_ms,
                    queue_wait_ms=now - req.at_ms,
                    service_ms=occupancy, route_ms=route_ms, fanout_ms=fanout_ms,
                    batch_size=batch_size, owner=owner, value=value,
                )
            )
        run.pending.clear()
        routed.clear()

    # -- join/leave: batch membership waves ----------------------------
    def _dispatch_membership(self, run: _Run, now: float, entry: _Entry) -> float:
        seq, req = entry
        if req.op == "leave":
            wave = [int(p) for p in req.peers if self.network.is_alive(int(p))]
            # Never let a wave empty the overlay: keep at least one peer.
            alive = int(self.network.n_peers)
            if len(wave) >= alive:
                wave = wave[: max(0, alive - 1)]
            change = self.network.remove_peers
        else:
            wave = [int(p) for p in req.peers if not self.network.is_alive(int(p))]
            change = self.network.revive_peers
        if wave:
            # The epoch ends here: what was dispatched before the wave is
            # routed, and its store operations run, on the old membership.
            self._resolve(run)
            change(wave)
        occupancy = self._occupancy_ms(req.op, len(wave))
        self.registry.inc(f"serve.{req.op}.peers", len(wave))
        run.pending.append(
            Completion(
                seq=seq, op=req.op, outcome="ok",
                arrival_ms=req.at_ms, dispatch_ms=now, finish_ms=now + occupancy,
                queue_wait_ms=now - req.at_ms, service_ms=occupancy,
                batch_size=len(wave),
            )
        )
        return now + occupancy
