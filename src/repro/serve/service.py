"""`DHTService`: a request-queue front-end over the trace-driven stacks.

The service closes the gap between "a routing library" and "a thing
that serves": clients submit :class:`~repro.serve.request.Request`
records (``get``/``put``/``join``/``leave``) which cross an explicit
queue boundary and are dispatched by a pool of ``workers`` slots on a
**deterministic simulated clock** — no wall time is consulted anywhere
(the DET002 source scan covers this package), so a run is a pure function of
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
route result: it only *schedules*, logging every dispatched get or put
— and every completion that is final already (``rejected``,
``deadline``, an unservable source's ``failed``) — in dispatch order.
A source is servable if one mask says so, read once per membership
epoch and re-read after each wave: the network's members, less the
peers a store's injector has crashed.  A route is a function of
(source, key, membership) and membership changes only at a
``join``/``leave``, so the log is *resolved* once per epoch, in
columns: one :func:`repro.engine.batch_route` call over every logged
get **and put**, one
:meth:`~repro.replication.store.ReplicatedStore.serve_epoch` over the
same lanes (replica groups placed and fan-out links priced in one call
each, then the disks replayed in dispatch order), and the completions
and fold rows built from those columns.  Nothing is routed, hashed or
located twice.  It is exact: the engine returns the scalar walk's
owner and latency bit for bit, and read-your-writes and hint /
disk-drop ordering fall where per-dispatch routing put them.  Only a
store under a fault injector keeps its puts off the engine call: a
lossy route is scalar and draws from the injector's stream, so its
epoch is replayed lane by lane (``store.put``, ``read_at``) and the
draws stay in dispatch order.  The log is flushed before a wave
touches the network, at the end of the run, and at ``_MAX_LANES``
routed lanes (bounded memory on any stream).  With a span recorder on
the *network*, the epoch's one ``record_batch`` folds gets and puts
alike, in dispatch order.

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
from itertools import islice
from typing import Any, cast

import numpy as np

from repro.engine import batch_route
from repro.metrics.registry import MetricsRegistry
from repro.replication.store import ReplicatedStore
from repro.serve.config import ServiceConfig
from repro.serve.request import OPS, Completion, Request
from repro.util.validation import require

__all__ = ["DHTService", "ServeResult"]

#: Routed lanes the completion log holds before it is resolved: the
#: engine's design width (``stream_batch_route``'s default chunk).
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
#: One completion's fold row: (op, outcome, queue wait, service, route, fan-out).
_Row = tuple[str, str, float, float, float, float]


@dataclass
class _Run:
    """State of one :meth:`DHTService.run`: the scheduler's (free-at,
    worker) ``heap`` and FIFO queues, whether each peer may source a
    request this epoch (``servable``), and the completion log since the
    last flush — dispatched ``lanes`` (those in ``routed`` awaiting the
    engine) and ``finals``, each with the number of lanes logged before
    it — until :meth:`DHTService._resolve` places every completion in
    ``done`` by sequence number and its fold row in ``rows``.
    """

    heap: list[tuple[float, int]]
    done: list[Completion]
    servable: list[bool]
    #: Whether the store routes its own puts (it has a fault injector).
    lossy: bool
    gets: deque[_Entry] = field(default_factory=deque)
    others: deque[_Entry] = field(default_factory=deque)
    lanes: list[_Dispatched] = field(default_factory=list)
    finals: list[tuple[int, Completion]] = field(default_factory=list)
    routed: list[Request] = field(default_factory=list)
    rows: list[_Row] = field(default_factory=list)
    #: Width of every get batch dispatched, in dispatch order.
    get_batches: list[int] = field(default_factory=list)

    def final(self, completion: Completion) -> None:
        """Log a completion that is final already, after the lanes so far."""
        self.finals.append((len(self.lanes), completion))


class DHTService:
    """Serve ``get``/``put``/``join``/``leave`` over a DHT stack.

    Parameters
    ----------
    network:
        A :class:`~repro.dht.chord.ChordNetwork` or
        :class:`~repro.core.hieras.HierasNetwork` (anything the batch
        engine routes over, with a membership mask and batch waves).
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

    def _servable(self) -> list[bool]:
        """Per peer, whether a get or put from it can be served now: a
        member of the network the store's injector has not crashed."""
        mask = self.network._alive
        if self.store is not None and self.store.injector is not None:
            mask = mask & ~self.store.injector.state.dead
        servable: list[bool] = mask.tolist()
        return servable

    def _validate(self, requests: list[Request]) -> None:
        """Reject a bad stream whole, before anything is served (and while
        the error can still name the request: resolution is deferred)."""
        n = len(self.network._alive)
        last_at = 0.0
        for seq, req in enumerate(requests):
            require(req.at_ms >= last_at, "requests must be sorted by at_ms")
            last_at = req.at_ms
            for peer in (req.source,) if req.op in ("get", "put") else req.peers:
                if not 0 <= peer < n:
                    raise ValueError(f"request {seq} ({req.op}): peer {peer} out of range [0, {n})")

    def _fold(self, run: _Run) -> dict[str, int]:
        """Fold a run's rows and get batches, each in dispatch order, into
        the registry; returns the outcome counts."""
        reg = self.registry
        if run.get_batches:
            reg.inc("serve.batches", len(run.get_batches))
            reg.inc("serve.batched_lookups", sum(run.get_batches))
            reg.histogram("serve.batch_size").record_many(run.get_batches)
        if not run.rows:
            return {}
        ops, outcomes, *phases = zip(*run.rows)
        counts = Counter(cast("tuple[str, ...]", outcomes))
        reg.inc("serve.arrivals", len(ops))
        for name, n in Counter(ops).items():
            reg.inc(f"serve.{name}.arrivals", n)
        for name, n in counts.items():
            reg.inc(f"serve.{name}", n)
        op, outcome = np.asarray(ops), np.asarray(outcomes)
        wait, service, route, fanout = (np.asarray(col, dtype=np.float64) for col in phases)
        # A rejected or shed request never reached the later phases.
        reached = (outcome == "ok") | (outcome == "failed")
        totals = wait + service + route + fanout
        columns = {
            "serve.shed_wait_ms": wait[outcome == "deadline"],
            "serve.total_ms": totals[reached],
            "serve.queue_wait_ms": wait[reached],
            "serve.service_ms": service[reached],
            "serve.route_ms": route[reached],
            "serve.fanout_ms": fanout[reached],
        }
        for name in OPS:
            columns[f"serve.{name}.total_ms"] = totals[reached & (op == name)]
        for name, values in columns.items():
            if values.size:
                reg.histogram(name).record_many(values)
        return dict(counts)

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
        run = _Run(
            heap=[(0.0, w) for w in range(cfg.workers)],
            # Every request gets exactly one completion, placed by seq.
            done=cast("list[Completion]", [None] * len(requests)),
            servable=self._servable(),
            lossy=self.store is not None and self.store.injector is not None,
        )
        heap, gets, others = run.heap, run.gets, run.others
        max_depth = 0
        for seq, req in enumerate(requests):
            if (gets or others) and heap[0][0] <= req.at_ms:
                self._drain(run, req.at_ms)
            depth = len(gets) + len(others)
            if cfg.queue_limit is not None and depth >= cfg.queue_limit:
                run.final(
                    Completion(
                        seq=seq, op=req.op, outcome="rejected",
                        arrival_ms=req.at_ms, finish_ms=req.at_ms,
                    )
                )
                continue
            (gets if req.op == "get" else others).append((seq, req))
            if depth + 1 > max_depth:
                max_depth = depth + 1
            if heap[0][0] <= req.at_ms:
                self._drain(run, req.at_ms)
        self._drain(run, math.inf)
        self._resolve(run)
        last_at = requests[-1].at_ms if requests else 0.0
        makespan = max([last_at] + [busy_until for busy_until, _ in heap])
        counts = self._fold(run)
        self.registry.set_gauge("serve.max_queue_depth", float(max_depth))
        self.registry.set_gauge("serve.makespan_ms", makespan)
        return ServeResult(
            config=cfg,
            completions=run.done,
            registry=self.registry,
            makespan_ms=makespan,
            max_queue_depth=max_depth,
            counts=counts,
        )

    @staticmethod
    def _unserved(seq: int, req: Request, outcome: str, now: float) -> Completion:
        """A request dropped at dispatch: shed, or its source is not servable."""
        return Completion(
            seq=seq, op=req.op, outcome=outcome,
            arrival_ms=req.at_ms, dispatch_ms=now, finish_ms=now,
            queue_wait_ms=now - req.at_ms,
        )

    def _drain(self, run: _Run, until: float) -> None:
        """Dispatch until the queue is empty or no worker frees by ``until``.

        The freest worker takes the next batch: a get at the head
        coalesces up to ``max_batch`` pending gets (oldest first), any
        other op dispatches alone, and a request whose queue wait already
        exceeds ``deadline_ms`` is shed as it is taken.  A get or put
        whose source is not servable fails there; the rest of its batch
        is logged for its epoch's engine call.
        """
        cfg, heap, gets, others = self.config, run.heap, run.gets, run.others
        deadline = cfg.deadline_ms
        while (gets or others) and heap[0][0] <= until:
            free_at, worker = heap[0]
            batch: list[_Entry] = []
            while not batch and (gets or others):
                coalesce = bool(gets) and (not others or gets[0][0] < others[0][0])
                queue, room = (gets, cfg.max_batch) if coalesce else (others, 1)
                while queue and len(batch) < room:
                    seq, req = queue.popleft()
                    now = max(free_at, req.at_ms)
                    if deadline is None or now - req.at_ms <= deadline:
                        batch.append((seq, req))
                    else:
                        run.final(self._unserved(seq, req, "deadline", now))
                        if not coalesce:
                            break
            if not batch:
                continue
            now = max(free_at, batch[0][1].at_ms)
            op = batch[0][1].op
            busy_until = now
            if op in ("join", "leave"):
                busy_until = self._dispatch_membership(run, now, batch[0])
            else:
                live = [(seq, req) for seq, req in batch if run.servable[req.source]]
                for seq, req in batch:
                    if not run.servable[req.source]:
                        run.final(self._unserved(seq, req, "failed", now))
                if live:
                    occupancy = self._occupancy_ms(op, len(live))
                    if op == "get":
                        run.get_batches.append(len(live))
                    run.lanes.extend([(seq, req, now, occupancy, len(live)) for seq, req in live])
                    # A put under an injector is the store's to route: scalar, seeded draws.
                    if op == "get" or not run.lossy:
                        run.routed.extend([req for _, req in live])
                    busy_until = now + occupancy
            heapq.heapreplace(heap, (busy_until, worker))
            if len(run.routed) >= _MAX_LANES:
                self._resolve(run)

    # -- resolve: one engine call and one store epoch, in columns -------
    def _resolve(self, run: _Run) -> None:
        """Turn the log into completions under the current membership: one
        engine call for every logged get and put (but a lossy store's puts)
        and one store epoch over the same lanes, then the completions and
        fold rows from those columns, in dispatch order."""
        store, lossy, routed = self.store, run.lossy, run.routed
        seqs, reqs, nows, occupancy, sizes = zip(*run.lanes) if run.lanes else ((),) * 5
        keys = [self._key_of(req.name) for req in routed]
        owner: list[Any] = []
        value: list[Any] = [None] * len(reqs)
        ok = [True] * len(reqs)
        route = fanout = np.zeros(len(reqs))
        if routed:
            result = batch_route(self.network, [req.source for req in routed], keys)
            self.registry.inc("serve.engine_calls")
            self.registry.inc("serve.engine_lanes", len(routed))
            owner, route = result.owner.tolist(), result.latency_ms
            if store is not None and not lossy:
                puts = [req.op == "put" for req in reqs]
                value, total, ok = store.serve_epoch(puts, result.owner, keys, [r.value for r in reqs])
                # Total minus route in the float order ``store.put``'s result sums them.
                fanout = (route + total) - route
        if store is not None and lossy and reqs:
            # Lane by lane, so the injector's draws stay in dispatch order: a
            # put is the store's own lossy ``put``, a get reads where it was routed.
            engine = zip(keys, owner, route.tolist())
            cells: list[tuple[Any, ...]] = []
            for req in reqs:
                if req.op == "get":
                    key, at, ms = next(engine)
                    cells.append((at, ms, 0.0, store.read_at(at, key), True))
                    continue
                put = store.put(req.source, req.name, req.value)
                hop = put.route
                ms = hop.latency_ms + hop.retry_latency_ms if hop is not None else 0.0
                at = int(hop.owner) if hop is not None else -1
                cells.append((at, ms, put.total_latency_ms - ms, None, put.success))
            owner, route_ms, fanout_ms, value, ok = (list(column) for column in zip(*cells))
            route, fanout = np.asarray(route_ms, dtype=np.float64), np.asarray(fanout_ms, dtype=np.float64)
        ops, arrivals = [req.op for req in reqs], [req.at_ms for req in reqs]
        outcome = ["ok" if success else "failed" for success in ok]
        now = np.asarray(nows, dtype=np.float64)
        wait = (now - np.asarray(arrivals, dtype=np.float64)).tolist()
        finish = (now + np.asarray(occupancy, dtype=np.float64) + route + fanout).tolist()
        route_ms, fanout_ms = route.tolist(), fanout.tolist()
        done = run.done
        # Positional: Completion's fields in declaration order, seq to value.
        for seq, completion in zip(seqs, map(
            Completion, seqs, ops, outcome, arrivals, nows, finish, wait, occupancy,
            route_ms, fanout_ms, sizes, owner, value,
        )):
            done[seq] = completion
        # The fold rows in log order: each final after the lanes logged before it.
        rows, lane_rows, taken = run.rows, zip(ops, outcome, wait, occupancy, route_ms, fanout_ms), 0
        for before, c in run.finals:
            rows.extend(islice(lane_rows, before - taken))
            taken = before
            rows.append((c.op, c.outcome, c.queue_wait_ms, c.service_ms, c.route_ms, c.fanout_ms))
            done[c.seq] = c
        rows.extend(lane_rows)
        run.lanes.clear()
        run.finals.clear()
        routed.clear()

    # -- join/leave: batch membership waves ----------------------------
    def _dispatch_membership(self, run: _Run, now: float, entry: _Entry) -> float:
        seq, req = entry
        peers = np.asarray(req.peers, dtype=np.int64)
        alive = self.network._alive[peers]
        if req.op == "leave":
            wave = peers[alive].tolist()
            # Never let a wave empty the overlay: keep at least one peer.
            members = int(self.network.n_peers)
            if len(wave) >= members:
                wave = wave[: max(0, members - 1)]
            change = self.network.remove_peers
        else:
            wave = peers[~alive].tolist()
            change = self.network.revive_peers
        if wave:
            # The epoch ends here: what was dispatched before the wave is
            # routed, and its store operations run, on the old membership.
            self._resolve(run)
            change(wave)
            run.servable = self._servable()
        occupancy = self._occupancy_ms(req.op, len(wave))
        self.registry.inc(f"serve.{req.op}.peers", len(wave))
        run.final(
            Completion(
                seq=seq, op=req.op, outcome="ok",
                arrival_ms=req.at_ms, dispatch_ms=now, finish_ms=now + occupancy,
                queue_wait_ms=now - req.at_ms, service_ms=occupancy,
                batch_size=len(wave),
            )
        )
        return now + occupancy
