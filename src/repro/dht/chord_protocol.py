"""Message-level Chord on the discrete-event engine.

Where :mod:`repro.dht.chord` is a *snapshot* (routing tables derived
from authoritative membership), this module is the *protocol*: nodes
join through a bootstrap contact, learn their successor with a real
lookup, converge finger tables through periodic ``fix_fingers``, repair
successor pointers through ``stabilize``/``notify`` (with successor-list
failover on crashes), and answer recursive lookups hop by hop.

One deliberate generalisation: a node participates in any number of
**named rings**, each with its own successor/predecessor/fingers/
successor-list state, and every protocol message carries the ring name.
Flat Chord is the special case of a single ``"global"`` ring; HIERAS's
protocol node (:mod:`repro.core.hieras_protocol`) reuses this machinery
unchanged for every layer — which is precisely the paper's point that
the underlying algorithm is reused per ring (§3.2).

Integration tests assert that a converged protocol network makes the
same next-hop decisions as the array-backed stack on the same
membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.sim.engine import Simulator
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimNode
from repro.util.ids import IdSpace
from repro.util.intervals import in_interval, in_interval_open
from repro.util.validation import require, require_int

__all__ = ["ChordProtocolNode", "ProtocolConfig", "RingState", "LookupOutcome"]

GLOBAL_RING = "global"


@dataclass(frozen=True)
class ProtocolConfig:
    """Timer and list-length settings for the protocol stack."""

    stabilize_interval_ms: float = 500.0
    fix_fingers_interval_ms: float = 250.0
    request_timeout_ms: float = 2000.0
    successor_list_len: int = 4

    def __post_init__(self) -> None:
        require(self.stabilize_interval_ms > 0, "stabilize interval must be positive")
        require(self.fix_fingers_interval_ms > 0, "fix_fingers interval must be positive")
        require(self.request_timeout_ms > 0, "request timeout must be positive")
        require_int(self.successor_list_len, 1, name="successor_list_len")


@dataclass
class RingState:
    """Per-ring Chord state of one node."""

    name: str
    successor: tuple[int, int] | None = None  # (peer, id)
    predecessor: tuple[int, int] | None = None
    fingers: list[tuple[int, int] | None] = field(default_factory=list)
    successor_list: list[tuple[int, int]] = field(default_factory=list)
    next_finger: int = 1

    def known_successor(self) -> tuple[int, int] | None:
        """Best current successor (primary, else first list entry)."""
        if self.successor is not None:
            return self.successor
        return self.successor_list[0] if self.successor_list else None


@dataclass
class LookupOutcome:
    """Result handed to a lookup callback."""

    key: int
    owner_peer: int
    owner_id: int
    hops: int
    ring: str


class ChordProtocolNode(SimNode):
    """A Chord node that may participate in several named rings."""

    def __init__(
        self,
        peer: int,
        node_id: int,
        space: IdSpace,
        sim: Simulator,
        network: SimNetwork,
        *,
        config: ProtocolConfig | None = None,
    ) -> None:
        super().__init__(peer, sim, network)
        self.node_id = space.validate_id(node_id, name="node_id")
        self.space = space
        self.config = config or ProtocolConfig()
        self.rings: dict[str, RingState] = {}
        self._next_token = 0
        self._pending: dict[int, Callable[[Message | None], None]] = {}
        self.lookup_count = 0
        self.lookup_retry_count = 0

    # ------------------------------------------------------------------
    # ring lifecycle
    # ------------------------------------------------------------------
    def create_ring(self, ring: str) -> None:
        """Become the founding (sole) member of ``ring``."""
        state = RingState(name=ring, fingers=[None] * self.space.bits)
        state.successor = (self.peer, self.node_id)
        self.rings[ring] = state
        self._start_timers(ring)

    def join_ring(self, ring: str, via_peer: int, *, on_done: Callable[[], None] | None = None) -> None:
        """Join ``ring`` through member ``via_peer`` (Chord's join).

        Finds this node's successor inside the ring with one lookup via
        the contact, then lets stabilize/notify/fix-fingers converge the
        rest — the same procedure the paper inherits from Chord (§3.3).
        """
        state = RingState(name=ring, fingers=[None] * self.space.bits)
        self.rings[ring] = state

        def _on_found(msg: Message | None) -> None:
            if msg is None:  # timeout: retry through the same contact
                self.after(self.config.request_timeout_ms, self.join_ring, ring, via_peer)
                return
            state.successor = (msg.payload["owner_peer"], msg.payload["owner_id"])
            self._start_timers(ring)
            if on_done is not None:
                on_done()

        self._remote_find_successor(ring, via_peer, self.node_id, _on_found)

    def _start_timers(self, ring: str) -> None:
        self.after(self.config.stabilize_interval_ms, self._stabilize_tick, ring)
        self.after(self.config.fix_fingers_interval_ms, self._fix_fingers_tick, ring)

    # ------------------------------------------------------------------
    # local routing helpers
    # ------------------------------------------------------------------
    def _closest_preceding(self, ring: str, key: int) -> tuple[int, int] | None:
        """Closest known ring member preceding ``key`` (fingers + succ)."""
        state = self.rings[ring]
        size = self.space.size
        best: tuple[int, int] | None = None
        best_dist = 0
        candidates = [f for f in state.fingers if f is not None]
        if state.successor is not None:
            candidates.append(state.successor)
        candidates.extend(state.successor_list)
        for cand in candidates:
            if cand[0] == self.peer:
                continue
            if in_interval_open(cand[1], self.node_id, key, size):
                dist = (cand[1] - self.node_id) % size
                if dist > best_dist:
                    best, best_dist = cand, dist
        return best

    def _owns(self, ring: str, key: int) -> bool:
        """True when ``key`` lies in ``(me, my ring successor]`` — i.e.
        this node is the key's ring predecessor."""
        state = self.rings[ring]
        succ = state.known_successor()
        if succ is None or succ[0] == self.peer:
            return True
        return in_interval(key, self.node_id, succ[1], self.space.size)

    def _successor_list_shortcut(self, ring: str, key: int) -> tuple[int, int] | None:
        """The §3.2 acceleration: jump via the ring's successor list.

        If the key falls within the arc my successor list covers, the
        list member immediately preceding it is the key's ring
        predecessor — return it for a direct hop.  ``None`` when the
        key lies beyond the list (fingers must route normally).
        """
        state = self.rings.get(ring)
        if state is None or not state.successor_list:
            return None
        size = self.space.size
        d_key = (key - self.node_id) % size
        last = state.successor_list[-1]
        if d_key == 0 or d_key > (last[1] - self.node_id) % size:
            return None
        best: tuple[int, int] | None = None
        for entry in state.successor_list:
            if (entry[1] - self.node_id) % size < d_key:
                best = entry
            else:
                break
        return best

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(
        self, key: int, callback: Callable[[LookupOutcome], None], *, ring: str = GLOBAL_RING
    ) -> None:
        """Resolve ``key``'s owner inside ``ring``; async result via callback."""
        key = self.space.wrap(int(key))
        self.lookup_count += 1
        m = self.network.metrics
        if m is not None:
            m.inc("protocol.lookups")
        token = self._register(lambda msg: self._finish_lookup(msg, callback))
        self._route_find(ring, key, origin=self.peer, hops=0, token=token)

    def _finish_lookup(self, msg: Message | None, callback: Callable[[LookupOutcome], None]) -> None:
        if msg is None:
            return  # lookup lost to a failure; caller may retry
        m = self.network.metrics
        if m is not None:
            m.inc("protocol.lookups_completed")
            m.observe("protocol.lookup_hops", msg.payload["hops"])
        callback(
            LookupOutcome(
                key=msg.payload["key"],
                owner_peer=msg.payload["owner_peer"],
                owner_id=msg.payload["owner_id"],
                hops=msg.payload["hops"],
                ring=msg.payload["ring"],
            )
        )

    def _route_find(self, ring: str, key: int, origin: int, hops: int, token: int) -> None:
        """Process a find-successor step locally (recursive routing)."""
        state = self.rings.get(ring)
        if state is None:
            return
        if self._owns(ring, key):
            succ = state.known_successor() or (self.peer, self.node_id)
            owner = (self.peer, self.node_id) if (key - self.node_id) % self.space.size == 0 else succ
            final_hops = hops if owner[0] == self.peer else hops + 1
            self.send(
                origin,
                "find_done",
                token=token,
                ring=ring,
                key=key,
                owner_peer=owner[0],
                owner_id=owner[1],
                hops=final_hops,
            )
            return
        nxt = self._closest_preceding(ring, key)
        if nxt is None:
            succ = state.known_successor()
            if succ is None or succ[0] == self.peer:
                return
            nxt = succ
        self.send(nxt[0], "find", token=token, ring=ring, key=key, origin=origin, hops=hops + 1)

    def _remote_find_successor(
        self, ring: str, via_peer: int, key: int, callback: Callable[[Message | None], None]
    ) -> None:
        token = self._register(callback, timeout=True)
        self.send(via_peer, "find", token=token, ring=ring, key=key, origin=self.peer, hops=0)

    # ------------------------------------------------------------------
    # stabilization (per ring)
    # ------------------------------------------------------------------
    def _stabilize_tick(self, ring: str) -> None:
        state = self.rings.get(ring)
        if state is None:
            return
        succ = state.known_successor()
        if succ is not None and succ[0] != self.peer:
            token = self._register(lambda msg: self._on_stabilize_reply(ring, msg), timeout=True)
            self.send(succ[0], "get_state", token=token, ring=ring)
        # Chord's check_predecessor: probe the predecessor so a silent
        # crash clears the pointer.  Without this, a successor keeps
        # reporting its dead predecessor and stabilizing nodes re-adopt
        # the corpse as their successor forever.
        pred = state.predecessor
        if pred is not None and pred[0] != self.peer:
            token = self._register(
                lambda msg, probed=pred: self._on_predecessor_probe(ring, probed, msg),
                timeout=True,
            )
            self.send(pred[0], "ping", token=token, ring=ring)
        self.after(self.config.stabilize_interval_ms, self._stabilize_tick, ring)

    def _on_predecessor_probe(
        self, ring: str, probed: tuple[int, int], msg: Message | None
    ) -> None:
        if msg is not None:
            return
        state = self.rings.get(ring)
        if state is not None and state.predecessor == probed:
            # No answer: presume dead and let the next live notify
            # claim the slot.  A false positive (lost pong) heals the
            # same way one stabilize round later.
            state.predecessor = None

    def _on_stabilize_reply(self, ring: str, msg: Message | None) -> None:
        state = self.rings.get(ring)
        if state is None:
            return
        if msg is None:  # successor failed: fail over to successor list
            if state.successor_list:
                state.successor = state.successor_list.pop(0)
            else:
                state.successor = (self.peer, self.node_id)
            return
        succ = state.known_successor()
        assert succ is not None
        pred = msg.payload.get("pred")
        if pred is not None and pred[0] != self.peer:
            if in_interval_open(pred[1], self.node_id, succ[1], self.space.size):
                state.successor = (pred[0], pred[1])
        succ = state.known_successor()
        assert succ is not None
        # Adopt successor's list, shifted by the successor itself.
        remote_list = [tuple(e) for e in msg.payload.get("succ_list", [])]
        merged = [succ, *(e for e in remote_list if e[0] != self.peer)]
        state.successor_list = list(dict.fromkeys(merged))[: self.config.successor_list_len]
        self.send(succ[0], "notify", ring=ring, cand_peer=self.peer, cand_id=self.node_id)

    def _fix_fingers_tick(self, ring: str) -> None:
        state = self.rings.get(ring)
        if state is None:
            return
        i = state.next_finger
        state.next_finger = 1 + (state.next_finger % self.space.bits)
        start = self.space.finger_start(self.node_id, i)

        def _set(msg: Message | None) -> None:
            if ring not in self.rings:
                return
            if msg is None:
                # The refresh died on a failed node — evict the stale
                # entry so routing falls back to closer live fingers /
                # the successor instead of forwarding into the failure
                # forever; a later refresh repopulates the slot.
                self.rings[ring].fingers[i - 1] = None
                return
            self.rings[ring].fingers[i - 1] = (
                msg.payload["owner_peer"],
                msg.payload["owner_id"],
            )

        token = self._register(_set, timeout=True)
        self._route_find(ring, start, origin=self.peer, hops=0, token=token)
        self.after(self.config.fix_fingers_interval_ms, self._fix_fingers_tick, ring)

    # ------------------------------------------------------------------
    # request/response plumbing
    # ------------------------------------------------------------------
    def _register(
        self,
        callback: Callable[[Message | None], None],
        *,
        timeout: bool = False,
        timeout_ms: float | None = None,
    ) -> int:
        self._next_token += 1
        token = (self.peer << 24) | (self._next_token & 0xFFFFFF)
        self._pending[token] = callback
        if timeout:
            self.after(
                timeout_ms if timeout_ms is not None else self.config.request_timeout_ms,
                self._timeout,
                token,
            )
        return token

    def _timeout(self, token: int) -> None:
        callback = self._pending.pop(token, None)
        if callback is not None:
            callback(None)

    def _resolve(self, message: Message) -> None:
        callback = self._pending.pop(message.token, None)
        if callback is not None:
            callback(message)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        kind = message.kind
        p = message.payload
        if kind == "find":
            self._route_find(p["ring"], p["key"], p["origin"], p["hops"], message.token)
        elif kind == "find_done":
            self._resolve(message)
        elif kind == "get_state":
            state = self.rings.get(p["ring"])
            if state is not None:
                self.reply(
                    message,
                    "state",
                    ring=p["ring"],
                    pred=state.predecessor,
                    succ_list=state.successor_list,
                )
        elif kind == "state":
            self._resolve(message)
        elif kind == "notify":
            state = self.rings.get(p["ring"])
            if state is not None:
                cand = (p["cand_peer"], p["cand_id"])
                if cand[0] != self.peer and (
                    state.predecessor is None
                    or in_interval_open(
                        cand[1], state.predecessor[1], self.node_id, self.space.size
                    )
                    or state.predecessor[0] not in self.network
                ):
                    old = state.predecessor
                    state.predecessor = cand
                    self.on_predecessor_changed(p["ring"], old, cand)
                # A sole founder adopts its first contact as successor.
                if state.successor is not None and state.successor[0] == self.peer:
                    state.successor = cand
        elif kind == "ping":
            self.reply(message, "pong", ring=p["ring"])
        elif kind == "pong":
            self._resolve(message)
        else:
            self.handle_extra(message)

    def handle_extra(self, message: Message) -> None:
        """Hook for subclasses (HIERAS adds ring-table messages)."""
        # Unknown kinds are ignored, like an unversioned wire protocol.
        return

    def on_predecessor_changed(
        self,
        ring: str,
        old: tuple[int, int] | None,
        new: tuple[int, int],
    ) -> None:
        """Hook fired when a ring predecessor is adopted.

        HIERAS uses the global-ring event to hand off stored ring
        tables whose ids now belong to the new predecessor (the same
        key-migration rule Chord applies to stored data on joins).
        """
        return

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
