"""Chord: the flat DHT baseline and HIERAS's underlying algorithm.

This is the trace-driven (array-backed) Chord: membership is a snapshot,
routing walks finger tables exactly as Stoica et al. define them (and as
the paper's baseline does), and per-hop latencies come from a
:class:`~repro.topology.base.LatencyModel`.  The message-level protocol
variant (join, stabilize, fix-fingers on the discrete-event engine)
lives in :mod:`repro.dht.chord_protocol`; integration tests assert both
make identical next-hop choices on identical memberships.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.dht.ring_array import FingerEntry, RingLayer, SortedRing
from repro.faults.injector import FaultInjector, LookupFaults
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.validation import require, require_int

__all__ = ["ChordNetwork"]

_NO_PEERS = np.empty(0, dtype=np.int64)


def _is_integer(value: object) -> bool:
    """An integer (numpy's included, as the batch path takes them), not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass
class _PlanLayer:
    """One layer of a lookup's plan: the rings it may walk and how.

    The ring and position are peer-indexed maps, not values, because
    the peer holding the message changes between layers (and, in the
    batch walker, differs per lane).
    """

    layer: int
    #: One slot per ring code; ``None`` for a code with no live member.
    rings: Sequence[SortedRing | None]
    #: Peer → ring code (index into ``rings``); ``None`` when one ring
    #: holds everyone.
    ring_of_peer: np.ndarray | None
    pos_of_peer: np.ndarray
    succ_list_r: int
    #: Span label of each code.
    ring_names: Sequence[str] = ("global",)
    _view: RingLayer | None = field(default=None, init=False, repr=False)

    def view(self) -> RingLayer:
        """All of ``rings`` as one array, for the batch walker and
        :meth:`ChordNetwork.successor_lists` (lazy).

        Built on the first such call after a membership wave and dropped
        with the plan; the scalar walks never ask for it.
        """
        view = self._view
        if view is None:
            if self.ring_of_peer is None:
                view = self.rings[0].layer_view()
            else:
                view = RingLayer(self.rings)
            self._view = view
        return view

    def at(self, peer: int) -> tuple[SortedRing, int]:
        """``peer``'s ring at this layer and its position in it."""
        ring = self.rings[0 if self.ring_of_peer is None else self.ring_of_peer[peer]]
        return ring, int(self.pos_of_peer[peer])

    def ring_name_at(self, peer: int) -> str:
        """Span label of ``peer``'s ring at this layer."""
        return self.ring_names[0 if self.ring_of_peer is None else self.ring_of_peer[peer]]


class ChordNetwork(DHTNetwork):
    """A Chord overlay over a static set of peers.

    Parameters
    ----------
    space:
        Identifier space.
    ids:
        One id per peer; ``ids[p]`` is peer ``p``'s node id.  Ids must
        be unique (Chord assumes collision-free hashing).
    latency:
        Peer-indexed latency model; defaults to zero latency (hop
        counting only).

    Notes
    -----
    Peer indices are stable handles: :meth:`remove_peer` keeps indices
    of remaining peers unchanged, and :meth:`add_peer` appends a new
    index.  Membership changes **splice** the sorted ring view in place
    (:meth:`~repro.dht.ring_array.SortedRing.splice` — O(n + k log n)
    per wave of ``k`` edits) instead of re-sorting everything; the
    result is bit-identical to the full O(n log n) rebuild, which stays
    available as the :meth:`rebuild` escape hatch and is pinned by the
    incremental-equivalence tests.  :attr:`rebuild_count` and
    :attr:`incremental_waves` expose which path ran.

    This class is also the base of
    :class:`~repro.core.hieras.HierasNetwork`: it owns the peer arrays,
    the global ring, the membership API and the layered ring walk, and
    HIERAS adds lower layers through :meth:`_build_plan`,
    :meth:`_rebuild` and :meth:`_apply_wave`.
    """

    #: Network label of the spans this stack records.
    span_label = "chord"

    #: How the perfect global loop ends: greedy to the key's owner, as
    #: here, or — HIERAS §3.2 — at the key's predecessor, followed by an
    #: explicit hop to the owner.  The two take different hops when the
    #: successor list reaches the owner, so they cannot be one rule.
    _greedy_global = True

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        latency: LatencyModel | None = None,
        successor_list_r: int = 0,
    ) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        require(len(ids) >= 1, "need at least one peer")
        require(len(np.unique(ids)) == len(ids), "node ids must be unique")
        require_int(successor_list_r, 0, name="successor_list_r")
        self.space = space
        self.latency = latency if latency is not None else ZeroLatency()
        # The paper's Chord baseline routes with fingers only (its hop
        # counts match plain greedy Chord), so the successor-list
        # shortcut defaults off here; ablations can enable it for a
        # like-for-like comparison with HIERAS's accelerated loops.
        self.successor_list_r = successor_list_r
        self._id_of_peer = ids.copy()
        self._alive = np.ones(len(ids), dtype=bool)
        #: Full O(n log n) rebuilds performed (the constructor's initial
        #: build counts); membership waves splice instead, so this stays
        #: flat under churn — pinned by the maintenance tests.
        self.rebuild_count = 0
        #: Membership waves applied incrementally (no full rebuild).
        self.incremental_waves = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self.rebuild_count += 1
        alive_peers = np.flatnonzero(self._alive)
        alive_ids = self._id_of_peer[alive_peers]
        order = np.argsort(alive_ids)
        self.ring = SortedRing(self.space, alive_ids[order], alive_peers[order])
        self._plan: list[_PlanLayer] | None = None

    def rebuild(self) -> None:
        """Escape hatch: re-derive every ring from scratch.

        Produces bit-identical state to the incremental splice path
        (asserted by ``tests/test_incremental.py``); exists so
        operators — and the equivalence tests — can force a full
        re-derivation at any time.
        """
        self._rebuild()

    def _apply_wave(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Splice one membership wave into the ring state.

        ``added``/``removed`` hold the peer indices whose liveness just
        flipped (``self._alive`` is already updated).  Every membership
        call funnels into this hook.
        """
        self.incremental_waves += 1
        rm_pos = np.searchsorted(self.ring.ids, self._id_of_peer[removed])
        self.ring = self.ring.splice(rm_pos, self._id_of_peer[added], added)
        self._plan = None

    @property
    def n_peers(self) -> int:
        """Number of live peers."""
        return int(self._alive.sum())

    def id_of(self, peer: int) -> int:
        """Node id of peer ``peer``."""
        return int(self._id_of_peer[peer])

    def is_alive(self, peer: int) -> bool:
        """Whether ``peer`` is currently a member."""
        n = len(self._alive)
        require(0 <= peer < n, f"peer {peer} out of range [0, {n})")
        return bool(self._alive[peer])

    def _admit(self, node_ids: list[int]) -> np.ndarray:
        """Validate new node ids and append them as live peers.

        Returns the new peer indices (empty for an empty batch); the
        caller splices them in with :meth:`_apply_wave`.  Validation is
        all-or-nothing, so a rejected id leaves the overlay untouched.
        Ring membership of the whole batch is checked with one
        vectorized ``searchsorted`` and in-batch duplicates with a set,
        so validating a wave of ``k`` joins is O(k log n), not the
        O(k²) of per-id list scans.
        """
        validated: list[int] = []
        seen: set[int] = set()
        for node_id in node_ids:
            node_id = self.space.validate_id(node_id, name="node_id")
            require(node_id not in seen, f"id {node_id} already present")
            seen.add(node_id)
            validated.append(node_id)
        if not validated:
            return _NO_PEERS
        new_ids = np.asarray(validated, dtype=np.uint64)
        at = np.minimum(np.searchsorted(self.ring.ids, new_ids), len(self.ring) - 1)
        present = np.flatnonzero(self.ring.ids[at] == new_ids)
        if present.size:
            raise ValueError(f"id {validated[int(present[0])]} already present")
        start = len(self._id_of_peer)
        self._id_of_peer = np.concatenate([self._id_of_peer, new_ids])
        self._alive = np.concatenate(
            [self._alive, np.ones(len(validated), dtype=bool)]
        )
        return np.arange(start, start + len(validated), dtype=np.int64)

    def add_peer(self, node_id: int) -> int:
        """Add a peer with ``node_id``; returns its new peer index."""
        return self.add_peers([node_id])[0]

    def add_peers(self, node_ids: list[int]) -> list[int]:
        """Add several peers in one membership change; returns indices.

        Validation (same checks, same messages) and the resulting
        indices match calling :meth:`add_peer` in sequence, but the new
        members are spliced into the ring view in one O(n + k log n)
        pass — the mutation is all-or-nothing, so a rejected id leaves
        the overlay untouched.
        """
        new_peers = self._admit(node_ids)
        if len(new_peers):
            self._apply_wave(new_peers, _NO_PEERS)
        return new_peers.tolist()

    def remove_peer(self, peer: int) -> None:
        """Remove ``peer`` from the overlay (graceful leave or failure)."""
        self.remove_peers([peer])

    def remove_peers(self, peers: list[int], *, graceful: bool = False) -> None:
        """Remove several peers in one membership change.

        Semantically a sequence of :meth:`remove_peer` calls (same
        checks, same error messages, in order) with one splice per
        touched ring at the end — rings the wave does not touch stay
        the same objects; validation runs against a scratch copy, so a
        rejected batch leaves the overlay untouched.

        ``graceful=True`` models an *announced* departure (HIERAS
        §3.3): after the rings are spliced (successors re-assigned) but
        before the departing disks are dropped, attached stores hear
        ``on_graceful_leave`` and hand keys/hints off to the keys' new
        replica groups.  The default (``False``) is a silent kill —
        disks vanish with the peers.
        """
        if not peers:
            return
        self._apply_wave(_NO_PEERS, self._flip(peers, alive=False))
        if graceful:
            self._notify_departing(peers)
        self._notify_removed(peers)

    def revive_peer(self, peer: int) -> None:
        """Bring a previously-removed peer back under its old index.

        A rejoining host keeps its identity (node id, attachment router
        — and therefore its latency-model index — and, on HIERAS, the
        rings its landmark orders named), so churn simulations revive
        rather than append; :meth:`add_peer` is for genuinely new
        peers.
        """
        self.revive_peers([peer])

    def revive_peers(self, peers: list[int]) -> None:
        """Revive several previously-removed peers in one spliced wave."""
        if not peers:
            return
        self._apply_wave(self._flip(peers, alive=True), _NO_PEERS)
        self._notify_revived(peers)

    def _flip(self, peers: list[int], *, alive: bool) -> np.ndarray:
        """Set ``peers``' membership to ``alive``; returns them as indices.
        One vectorised check stands for the per-peer sequence: the first
        peer out of range or already so (a repeat is), or removing the last
        live one, raises and leaves the overlay untouched."""
        wave = np.asarray(peers, dtype=np.int64).reshape(-1)
        n = len(self._alive)
        inside = (wave >= 0) & (wave < n)
        repeat = np.ones(wave.size, dtype=bool)
        repeat[np.unique(wave, return_index=True)[1]] = False
        bad = np.flatnonzero(~inside | repeat | (self._alive[np.where(inside, wave, 0)] == alive))
        last = wave.size if alive else int(self._alive.sum()) - 1  # where "last peer" fires
        if bad.size and bad[0] <= last:
            peer, state = peers[bad[0]], "already" if alive else "not"
            require(bool(inside[bad[0]]), f"peer {peer} out of range [0, {n})")
            raise ValueError(f"peer {peer} is {state} alive")
        require(last >= wave.size, "cannot remove the last peer")
        self._alive = self._alive.copy()
        self._alive[wave] = alive
        return wave

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _layer_plan(self) -> list[_PlanLayer]:
        """The layers a lookup walks, lowest ring first.

        Every walker — :meth:`route`, :meth:`route_lossy`, the batch
        engine — and every inspector (:meth:`finger_table`,
        :meth:`hop_layer_info`) reads this one description.  Membership
        waves invalidate rather than recompute it, so a burst of waves
        with no routing in between pays one :meth:`_build_plan` total
        instead of one per wave.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build_plan()
        return plan

    def _build_plan(self) -> list[_PlanLayer]:
        """Flat Chord is the zero-lower-layer case: the global ring alone."""
        pos = np.full(len(self._id_of_peer), -1, dtype=np.int64)
        pos[self.ring.peers] = np.arange(len(self.ring))
        return [_PlanLayer(1, (self.ring,), None, pos, self.successor_list_r)]

    def _ring_at(self, peer: int, layer: int) -> tuple[SortedRing, int]:
        """``peer``'s ring at ``layer`` (1 = global) and its position."""
        plan = self._layer_plan()
        require(1 <= layer <= len(plan), f"layer must be in [1, {len(plan)}]")
        require(bool(self._alive[peer]), f"peer {peer} is not alive")
        return plan[-layer].at(peer)

    def _require_source(self, source: int) -> None:
        """The one source check of ``route``, ``route_lossy`` and the batch walker."""
        n = len(self._alive)
        require(_is_integer(source), f"source peer must be an integer, got {source!r}")
        require(0 <= source < n, f"source peer {source} out of range [0, {n})")
        require(bool(self._alive[source]), f"source peer {source} is not alive")

    def _require_key(self, key: int) -> int:
        """The one key check of ``route``, ``route_lossy`` and ``owner_of``.

        An integer (numpy's included, as in the batch path) wrapped
        modulo ``2**bits``; a float or bool is refused, not truncated to
        a key the caller never named.
        """
        require(_is_integer(key), f"key must be an integer, got {key!r}")
        return self.space.wrap(int(key))

    def owner_of(self, key: int) -> int:
        """Peer responsible for ``key`` — its successor on the global ring."""
        return int(self.ring.peers[self.ring.successor_pos(self._require_key(key))])

    def route(self, source: int, key: int) -> RouteResult:
        """Route ``key`` from ``source`` to its owner, lowest ring first.

        One loop per layer of :meth:`_layer_plan`, each running Chord's
        greedy finger rule restricted to the current ring's membership.
        Flat Chord has the global loop only.  HIERAS's lower loops stop
        at the key's *ring predecessor* — the ring member the key falls
        immediately after — so the message approaches the key
        monotonically and never overshoots it (DESIGN.md §5 discusses
        this reading of the paper's "numerically closest node in this
        ring"), and its global loop ends with the explicit §3.2 hop to
        the key's owner.
        """
        self._require_source(source)
        return self._walk_plan(source, self._require_key(key), None)

    def route_lossy(self, source: int, key: int, *, injector: FaultInjector) -> RouteResult:
        """Failure-aware routing under an active fault injector.

        Same layer-by-layer procedure as :meth:`route`, but every ring
        snapshot is treated as *stale* knowledge: peers the injector
        has crashed still appear in finger tables, each contact may
        time out (dead target, partition, or message loss), and each
        loop falls back through next-best fingers and the per-layer
        §3.3 successor list (``injector.policy.successor_fallback``
        entries), paying retry penalties from the injector's
        :class:`~repro.faults.retry.RetryPolicy`.  Lower loops stop at
        the key's closest *live* ring predecessor; the global loop ends
        at the first *live* successor of the key — the peer that
        actually owns it after the failures.  The returned
        :class:`RouteResult` carries the per-lookup outcome
        (``success``, ``timeouts``, ``retry_latency_ms``); on failure
        ``owner`` is ``-1`` and ``path`` covers the hops taken before
        the lookup died.
        """
        self._require_source(source)
        key = self._require_key(key)
        require(not injector.state.is_dead(source), f"source peer {source} has crashed")
        return self._walk_plan(source, key, LookupFaults(injector))

    def _walk_plan(self, source: int, key: int, faults: LookupFaults | None) -> RouteResult:
        """The one plan walk: :meth:`SortedRing.walk` per layer, either contact policy.

        All that failure mode changes about the plan is on the four
        lines marked below.  It never applies the §3.2 successor-list
        acceleration and ends the global loop greedily on every stack,
        so a fault-free :meth:`route_lossy` equals :meth:`route` only
        where neither matters — flat Chord, HIERAS with
        ``successor_list_policy="off"`` (ROADMAP: "failure-mode HIERAS
        is not the figures' HIERAS").
        """
        lossy = faults is not None
        path = [source]
        hops_per_layer: list[int] = []
        ok = True
        for row in self._layer_plan():
            ring, pos = row.at(path[-1])
            taken = len(path)
            # -- what the contact policy decides, and nothing else does --
            to_owner = row.layer == 1 and (lossy or self._greedy_global)
            succ_list_r = 0 if lossy else row.succ_list_r
            owner_hop = row.layer == 1 and not to_owner
            delay_factor = faults.delay_factor if lossy else 1.0
            sub, ok = ring.walk(pos, key, to_owner=to_owner, succ_list_r=succ_list_r, faults=faults)
            peers = ring.peers
            for p in sub[1:]:
                path.append(int(peers[p]))
            if owner_hop:
                # Terminating step (§3.2): the global predecessor hands
                # the request to its successor — the key's owner — just
                # like flat Chord's final hop.
                owner = self.owner_of(key)
                if path[-1] != owner:
                    path.append(owner)
            hops_per_layer.append(len(path) - taken)
            if not ok:
                break
        result = RouteResult(
            source=source,
            key=key,
            owner=path[-1] if ok else -1,
            path=path,
            latency_ms=self.route_latency(self.latency, path) * delay_factor,
            hops_per_layer=hops_per_layer,
            success=ok,
            timeouts=faults.timeouts if lossy else 0,
            retry_latency_ms=faults.retry_latency_ms if lossy else 0.0,
        )
        if self.metrics is not None:
            layers, rings = self.hop_layer_info(result)
            self.record_route(self.span_label, result, layers=layers, rings=rings)
        return result

    def hop_layer_info(self, result: RouteResult) -> tuple[list[int], list[str]]:
        """Per-hop ``(layers, rings)`` labels for one finished lookup.

        ``hops_per_layer`` is ordered like :meth:`_layer_plan`, lowest
        layer first, so zipping the two recovers which ring each
        ``path`` edge ran in.  A hop's ring is named after its *source*
        peer — the peer whose ring-restricted finger table chose the
        next hop.
        """
        layers: list[int] = []
        rings: list[str] = []
        hop = 0
        for row, layer_hops in zip(self._layer_plan(), result.hops_per_layer):
            for src in result.path[hop : hop + layer_hops]:
                layers.append(row.layer)
                rings.append(row.ring_name_at(src))
            hop += layer_hops
        return layers, rings

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def finger_table(self, peer: int, layer: int = 1) -> list[FingerEntry]:
        """Materialised finger table of ``peer`` in one layer's ring.

        Layer 1, the default, is the global ring (paper Table 2 layout).
        """
        ring, pos = self._ring_at(peer, layer)
        return ring.finger_table(pos)

    def successor_lists(self, peers: np.ndarray, r: int, *, lowest: bool = False) -> np.ndarray:
        """Row ``i``: the ``r`` nearest successors of ``peers[i]`` on the
        global ring (``lowest``: on its lowest-layer ring), ``-1`` where
        the ring has no ``r`` other members — one gather for every row."""
        require(r >= 0, "r must be >= 0")
        peers = np.asarray(peers, dtype=np.int64)
        row = self._layer_plan()[0 if lowest else -1]
        view = row.view()
        code = 0 if row.ring_of_peer is None else row.ring_of_peer[peers][:, None]
        size, step = view.sizes[code], np.arange(1, r + 1)
        out = view.peers[view.base[code] + (row.pos_of_peer[peers][:, None] + step) % size]
        return np.where(step < size, out, -1)

    def successor_list(self, peer: int, r: int) -> list[int]:
        """Peer indices of ``peer``'s ``r`` nearest successors."""
        row = self.successor_lists(np.asarray([peer], dtype=np.int64), r)[0]
        return row[row >= 0].tolist()

    def explain_route(self, source: int, key: int) -> str:
        """Human-readable per-hop narration of one lookup.

        Shows, for every hop: the layer/ring it ran in, the peers and
        node ids involved, and the link delay — the debugging view of
        §3.2's multi-loop procedure (one loop on flat Chord).
        """
        result = self.route(source, key)
        layers, rings = self.hop_layer_info(result)
        lines = [
            f"route key={result.key} from peer {source} "
            f"(id {self.id_of(source)}): {result.hops} hops, "
            f"{result.latency_ms:.0f}ms"
        ]

        def where(layer: int, ring: str) -> str:
            label = "global ring" if layer == 1 else f'ring "{ring}"'
            return f"layer {layer} ({label})"

        hop = 0
        for row, layer_hops in zip(self._layer_plan(), result.hops_per_layer):
            if layer_hops == 0:
                idle = row.ring_name_at(result.path[hop])
                lines.append(f"  {where(row.layer, idle)}: no hops needed")
            for i in range(hop, hop + layer_hops):
                a, b = result.path[i], result.path[i + 1]
                lines.append(
                    f"  {where(layers[i], rings[i])}: peer {a} (id {self.id_of(a)})"
                    f" -> peer {b} (id {self.id_of(b)})  {self.latency.pair(a, b):.0f}ms"
                )
            hop += layer_hops
        lines.append(
            f"  owner: peer {result.owner} (id {self.id_of(result.owner)})"
        )
        return "\n".join(lines)
