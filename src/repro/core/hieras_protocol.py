"""The HIERAS node-operations protocol (paper §3.3) on the event engine.

A :class:`HierasProtocolNode` extends the multi-ring Chord protocol node
with everything §3.3 specifies for a join:

1. Contact a nearby member ``n'`` (the bootstrap) and join the global
   ring with Chord's ordinary join.
2. Copy the landmark table from the bootstrap and determine the lower
   rings to join (the caller supplies the measured ring names — the
   binning itself is :mod:`repro.core.binning`).
3. For each lower ring: compute its ring id, look up the node ``c``
   storing the ring table with one *ordinary Chord lookup* on the
   global ring, and request the table.
4. Join that ring through a member found in the table (node ``p``),
   building the per-ring finger tables with in-ring lookups; or, if the
   ring does not exist yet, become its founding member.
5. Send a ring-table modification back to ``c`` when the joiner's id
   belongs among the ring's four extremes.

Ring-table storage follows §3.1: the node whose id is closest to
``hash(ringname)`` stores the table; members re-publish it periodically
so the mapping survives churn, and the host refreshes dead extremes.

Hierarchical lookups (§3.2) run bottom-up across the node's rings using
exactly the flat protocol's per-ring routing, with the early-exit
destination check between loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.core.ring import ring_id
from repro.dht.chord_protocol import (
    GLOBAL_RING,
    REQUEST_TIMEOUT_MS,
    STABILIZE_INTERVAL_MS,
    ChordProtocolNode,
    LookupOutcome,
)
from repro.sim.engine import Simulator
from repro.sim.network import Message, SimNetwork
from repro.util.ids import IdSpace
from repro.util.intervals import in_interval, in_interval_open

__all__ = ["HierasProtocolNode", "HierasLookupOutcome"]

#: Period at which every member re-publishes its rings' tables.
REPUBLISH_INTERVAL_MS = 2000.0


@dataclass
class HierasLookupOutcome:
    """Result of a hierarchical lookup."""

    key: int
    owner_peer: int
    owner_id: int
    hops: int
    hops_per_layer: list[int]  # lowest layer first, like RouteResult


class HierasProtocolNode(ChordProtocolNode):
    """A HIERAS peer: multi-ring Chord node plus §3.3 node operations."""

    def __init__(
        self,
        peer: int,
        node_id: int,
        space: IdSpace,
        sim: Simulator,
        network: SimNetwork,
    ) -> None:
        super().__init__(peer, node_id, space, sim, network)
        #: Ring names this node belongs to, lowest layer LAST
        #: (``lower_rings[0]`` is layer 2).
        self.lower_rings: list[str] = []
        #: Landmark table (§3.1): addresses of the landmark machines,
        #: copied from the bootstrap at join time.
        self.landmark_table: list[int] = []
        #: Ring tables this node stores as host ``c`` (name → 4 extreme
        #: (id, peer) pairs, largest/2nd-largest/smallest/2nd-smallest).
        self.stored_ring_tables: dict[str, list[tuple[int, int]]] = {}
        self.joined = False
        self._join_index: int | None = None
        self._join_progress = 0

    # ------------------------------------------------------------------
    # system bootstrap / join (§3.3)
    # ------------------------------------------------------------------
    def found_system(self, ring_names: list[str], landmark_table: list[int]) -> None:
        """Become the very first node of a HIERAS system."""
        self.landmark_table = list(landmark_table)
        self.lower_rings = list(ring_names)
        self.create_ring(GLOBAL_RING)
        for name in ring_names:
            self.create_ring(name)
            self._store_ring_table_locally(name)
        self.joined = True
        self.after(REPUBLISH_INTERVAL_MS, self._republish_tick)

    def join_system(self, bootstrap_peer: int, ring_names: list[str]) -> None:
        """Join an existing system through nearby member ``bootstrap_peer``.

        ``ring_names`` are this node's landmark orders (layer 2 first),
        measured by the caller against the landmark set — the protocol
        cannot ping for itself inside the simulation, so measurement is
        injected, mirroring how §3.3 separates binning from joining.
        """
        self.joined = False  # re-joins reset the flag until convergence
        self.lower_rings = list(ring_names)
        self._join_index = None
        # Ask the bootstrap for the landmark table, then join layer 1.
        token = self._register(self._on_landmark_table, timeout=True)
        self.send(bootstrap_peer, "landmark_table_req", token=token)
        self.join_ring(
            GLOBAL_RING, bootstrap_peer, on_done=lambda: self._join_lower(0)
        )
        # Watchdog: lower-ring joins involve lookups whose replies can
        # be lost to churn (dead hosts, stale routes); if a step makes
        # no progress for a few timeouts, re-run it from scratch.
        self.after(
            3 * REQUEST_TIMEOUT_MS,
            self._join_watchdog,
            self._join_progress,
        )

    def _join_watchdog(self, last_progress: int) -> None:
        if self.joined or not self.alive:
            return
        if self._join_progress == last_progress and self._join_index is not None:
            self._join_lower(self._join_index)
        self.after(
            3 * REQUEST_TIMEOUT_MS,
            self._join_watchdog,
            self._join_progress,
        )

    def _on_landmark_table(self, msg: Message | None) -> None:
        if msg is not None:
            self.landmark_table = list(msg.payload["landmarks"])

    def _join_lower(self, index: int) -> None:
        """Join lower ring ``index`` (0 = layer 2), then recurse."""
        self._join_index = index
        self._join_progress += 1
        if index >= len(self.lower_rings):
            self.joined = True
            self.after(REPUBLISH_INTERVAL_MS, self._republish_tick)
            return
        name = self.lower_rings[index]
        rid = ring_id(self.space, name)

        def _on_host(outcome: LookupOutcome) -> None:
            # ``c`` — the ring-table host — answers with the table (or
            # "unknown" if we are the ring's first member).
            token = self._register(
                lambda msg: self._on_ring_table(index, name, outcome.owner_peer, msg),
                timeout=True,
            )
            self.send(
                outcome.owner_peer,
                "ring_table_req",
                token=token,
                name=name,
                node_id=self.node_id,
                claim=False,
            )

        self.lookup(rid, _on_host, ring=GLOBAL_RING)

    def _on_ring_table(
        self, index: int, name: str, host_peer: int, msg: Message | None, attempt: int = 0
    ) -> None:
        if msg is None:  # host failed mid-join: retry the whole step
            self.after(REQUEST_TIMEOUT_MS, self._join_lower, index)
            return
        entries = msg.payload.get("entries")
        if not entries:
            if attempt == 0:
                # The host may itself have just joined and not yet have
                # received the table handoff; retry once after a couple
                # of stabilization rounds before concluding the ring is
                # genuinely new.  (Without this, a stale "no table"
                # answer makes the joiner found a duplicate ring — a
                # partition stabilize can never heal.)
                self.after(
                    2 * STABILIZE_INTERVAL_MS,
                    self._retry_ring_table,
                    index,
                    name,
                )
                return
            # The host confirmed no table exists and registered us as
            # the founder (the ``claim`` flag serialises concurrent
            # would-be founders at the host): found the ring.
            self.create_ring(name)
            self._store_ring_table_locally(name)
            self._publish_ring_table(name)
            self._join_lower(index + 1)
            return
        bootstrap = int(entries[2][1])  # smallest-id member, like Table 3

        def _after_ring_join() -> None:
            # §3.3: notify ``c`` when our id belongs among the extremes.
            ids = [e[0] for e in entries]
            if self.node_id > min(ids[0], ids[1]) or self.node_id < max(ids[2], ids[3]):
                self.send(
                    host_peer,
                    "ring_table_update",
                    name=name,
                    node_id=self.node_id,
                    node_peer=self.peer,
                )
            self._join_lower(index + 1)

        self.join_ring(name, bootstrap, on_done=_after_ring_join)

    def _retry_ring_table(self, index: int, name: str) -> None:
        """Second ring-table fetch, freshly routed to the current host."""
        rid = ring_id(self.space, name)

        def _on_host(outcome: LookupOutcome) -> None:
            token = self._register(
                lambda msg: self._on_ring_table(
                    index, name, outcome.owner_peer, msg, attempt=1
                ),
                timeout=True,
            )
            self.send(
                outcome.owner_peer,
                "ring_table_req",
                token=token,
                name=name,
                node_id=self.node_id,
                claim=True,
            )

        self.lookup(rid, _on_host, ring=GLOBAL_RING)

    # ------------------------------------------------------------------
    # ring-table hosting
    # ------------------------------------------------------------------
    def on_predecessor_changed(
        self,
        ring: str,
        old: tuple[int, int] | None,
        new: tuple[int, int],
    ) -> None:
        """Hand off ring tables the new predecessor now owns.

        Table ownership follows Chord data placement — the table for
        ``ringname`` lives at the current successor of its ring id — so
        when a joiner slots in as our predecessor, every stored table
        whose ring id no longer falls in ``(pred, me]`` migrates to it.
        """
        if ring != GLOBAL_RING or not self.stored_ring_tables:
            return
        for name in list(self.stored_ring_tables):
            rid = ring_id(self.space, name)
            if not in_interval(rid, new[1], self.node_id, self.space.size):
                entries = self.stored_ring_tables.pop(name)
                self.send(new[0], "ring_table_put", name=name, entries=entries)

    def _store_ring_table_locally(self, name: str) -> None:
        entry = (self.node_id, self.peer)
        self.stored_ring_tables[name] = [entry, entry, entry, entry]

    def _apply_table_update(self, name: str, node_id: int, node_peer: int) -> None:
        table = self.stored_ring_tables.get(name)
        if table is None:
            entry = (node_id, node_peer)
            self.stored_ring_tables[name] = [entry, entry, entry, entry]
            return
        ids = {e[0]: e for e in table}
        ids[node_id] = (node_id, node_peer)
        ordered = sorted(ids.values(), key=lambda e: e[0])
        largest, second_largest = ordered[-1], ordered[max(len(ordered) - 2, 0)]
        smallest, second_smallest = ordered[0], ordered[min(1, len(ordered) - 1)]
        self.stored_ring_tables[name] = [largest, second_largest, smallest, second_smallest]

    def _republish_tick(self) -> None:
        """Members periodically re-publish and audit their rings' tables.

        Re-publication routes to whoever currently hosts the ring id,
        so the table migrates as membership changes and survives host
        failures (the paper replicates the table; routed refresh
        achieves the same durability in this simulation).  The audit
        half reads the table back and adopts any listed member sitting
        between this node and its current ring successor: if concurrent
        founding ever split a ring into parallel loops, the shared
        table is the rendezvous through which they re-merge (stabilize
        alone can never join disjoint cycles).
        """
        if not self.alive or not self.joined:
            return
        for name in self.lower_rings:
            rid = ring_id(self.space, name)

            def _send_update(outcome: LookupOutcome, name: str = name) -> None:
                self.send(
                    outcome.owner_peer,
                    "ring_table_update",
                    name=name,
                    node_id=self.node_id,
                    node_peer=self.peer,
                )
                token = self._register(
                    lambda msg: self._audit_ring_table(name, msg), timeout=True
                )
                self.send(
                    outcome.owner_peer,
                    "ring_table_req",
                    token=token,
                    name=name,
                    node_id=self.node_id,
                    claim=False,
                )

            self.lookup(rid, _send_update, ring=GLOBAL_RING)
        self.after(REPUBLISH_INTERVAL_MS, self._republish_tick)

    def _audit_ring_table(self, name: str, msg: Message | None) -> None:
        """Adopt a closer ring successor learned from the ring table."""
        if msg is None:
            return
        entries = msg.payload.get("entries")
        state = self.rings.get(name)
        if not entries or state is None:
            return
        succ = state.known_successor()
        if succ is None:
            return
        for node_id, node_peer in entries:
            if node_peer == self.peer:
                continue
            if succ[0] == self.peer or in_interval_open(
                node_id, self.node_id, succ[1], self.space.size
            ):
                state.successor = (node_peer, node_id)
                succ = state.successor

    def _publish_ring_table(self, name: str) -> None:
        rid = ring_id(self.space, name)
        self.lookup(
            rid,
            lambda outcome: self.send(
                outcome.owner_peer,
                "ring_table_update",
                name=name,
                node_id=self.node_id,
                node_peer=self.peer,
            ),
            ring=GLOBAL_RING,
        )

    # ------------------------------------------------------------------
    # hierarchical lookup (§3.2)
    # ------------------------------------------------------------------
    def hieras_lookup(
        self,
        key: int,
        callback: Callable[[HierasLookupOutcome], None],
        *,
        retries: int = 0,
        on_fail: Callable[[int], None] | None = None,
    ) -> None:
        """Bottom-up lookup: lowest ring first, global ring last.

        With ``retries == 0`` (the default) the lookup is one-shot: a
        request that dies to a crashed relay or a lost message simply
        never completes, which is what the churn experiment measures.
        ``retries > 0`` makes the lookup failure-aware: the originator
        arms a watchdog (a multiple of the request timeout, so a full
        multi-hop route fits comfortably inside it) and re-issues the
        lookup from scratch up to ``retries`` times — by then stabilize
        has usually routed around the failure (§3.3).  ``on_fail`` fires
        with the key if every attempt times out.
        """
        key = self.space.wrap(int(key))
        layers = len(self.lower_rings) + 1
        attempts_left = retries

        def _finish(msg: Message | None) -> None:
            nonlocal attempts_left
            if msg is None:
                if attempts_left > 0 and self.alive:
                    attempts_left -= 1
                    self.lookup_retry_count += 1
                    _start()
                elif on_fail is not None:
                    on_fail(key)
                return
            callback(
                HierasLookupOutcome(
                    key=msg.payload["key"],
                    owner_peer=msg.payload["owner_peer"],
                    owner_id=msg.payload["owner_id"],
                    hops=msg.payload["hops"],
                    hops_per_layer=msg.payload["per_layer"],
                )
            )

        def _start() -> None:
            self.lookup_count += 1
            if retries > 0:
                token = self._register(
                    _finish, timeout=True, timeout_ms=3.0 * REQUEST_TIMEOUT_MS
                )
            else:
                token = self._register(_finish)
            self._route_hieras(key, self.peer, layers, 0, [0] * layers, token)

        _start()

    def _layer_ring_name(self, layer: int) -> str | None:
        """Ring name for ``layer`` (1 = global; depth = lowest)."""
        if layer == 1:
            return GLOBAL_RING
        index = layer - 2
        if index >= len(self.lower_rings):
            return None
        return self.lower_rings[index]

    def _is_global_owner(self, key: int) -> bool:
        """Early-exit check (§3.2): am I the key's destination?"""
        state = self.rings.get(GLOBAL_RING)
        if state is None or state.predecessor is None:
            return False
        return in_interval(key, state.predecessor[1], self.node_id, self.space.size)

    def _route_hieras(
        self,
        key: int,
        origin: int,
        layer: int,
        hops: int,
        per_layer: list[int],
        token: int,
    ) -> None:
        # Early exit: the current peer checks whether it already is the
        # destination before continuing in any ring.
        if self._is_global_owner(key):
            self.send(
                origin,
                "h_done",
                token=token,
                key=key,
                owner_peer=self.peer,
                owner_id=self.node_id,
                hops=hops,
                per_layer=per_layer,
            )
            return
        ring = self._layer_ring_name(layer)
        if ring is None or ring not in self.rings:
            # Node lacks this layer (e.g. still joining): fall through
            # to the next one rather than stalling the lookup.
            if layer > 1:
                self._route_hieras(key, origin, layer - 1, hops, per_layer, token)
            return
        layers = len(self.lower_rings) + 1
        slot = layers - layer  # per_layer is ordered lowest layer first
        if self._owns(ring, key):
            if layer == 1:
                state = self.rings[ring]
                succ = state.known_successor() or (self.peer, self.node_id)
                if succ[0] == self.peer:
                    self.send(
                        origin, "h_done", token=token, key=key,
                        owner_peer=self.peer, owner_id=self.node_id,
                        hops=hops, per_layer=per_layer,
                    )
                    return
                per_layer = per_layer.copy()
                per_layer[slot] += 1
                # Final hop: hand the request to the owner, who replies.
                self.send(
                    succ[0], "h_deliver", token=token, key=key, origin=origin,
                    hops=hops + 1, per_layer=per_layer,
                )
                return
            self._route_hieras(key, origin, layer - 1, hops, per_layer, token)
            return
        # §3.2 acceleration (loops above the lowest): if the key's ring
        # predecessor sits in this node's per-layer successor list, hop
        # to it directly instead of finger-routing.
        nxt = None
        if layer < layers:
            shortcut = self._successor_list_shortcut(ring, key)
            if shortcut is not None and shortcut[0] != self.peer:
                nxt = shortcut
        if nxt is None:
            nxt = self._closest_preceding(ring, key)
        if nxt is None:
            if layer > 1:
                self._route_hieras(key, origin, layer - 1, hops, per_layer, token)
            return
        per_layer = per_layer.copy()
        per_layer[slot] += 1
        self.send(
            nxt[0], "h_find", token=token, key=key, origin=origin,
            layer=layer, hops=hops + 1, per_layer=per_layer,
        )

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle_extra(self, message: Message) -> None:
        kind = message.kind
        p = message.payload
        if kind == "landmark_table_req":
            self.reply(message, "landmark_table_resp", landmarks=self.landmark_table)
        elif kind == "landmark_table_resp":
            self._resolve(message)
        elif kind == "ring_table_req":
            entries = self.stored_ring_tables.get(p["name"])
            if entries is None and p.get("claim"):
                # Serialise founders: provisionally record the claimant
                # so a concurrent second founder sees a table and joins
                # through the first instead of splitting the ring.
                self._apply_table_update(p["name"], p["node_id"], message.sender)
            self.reply(message, "ring_table_resp", name=p["name"], entries=entries)
        elif kind == "ring_table_resp":
            self._resolve(message)
        elif kind == "ring_table_update":
            self._apply_table_update(p["name"], p["node_id"], p["node_peer"])
        elif kind == "ring_table_put":
            existing = self.stored_ring_tables.get(p["name"])
            if existing is None:
                self.stored_ring_tables[p["name"]] = [tuple(e) for e in p["entries"]]
            else:
                for node_id, node_peer in p["entries"]:
                    self._apply_table_update(p["name"], node_id, node_peer)
        elif kind == "h_find":
            self._route_hieras(
                p["key"], p["origin"], p["layer"], p["hops"], p["per_layer"], message.token
            )
        elif kind == "h_deliver":
            self.send(
                p["origin"], "h_done", token=message.token, key=p["key"],
                owner_peer=self.peer, owner_id=self.node_id,
                hops=p["hops"], per_layer=p["per_layer"],
            )
        elif kind == "h_done":
            self._resolve(message)
