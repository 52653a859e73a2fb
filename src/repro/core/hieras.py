"""HIERAS: the hierarchical multi-ring DHT network (paper §2–§3).

A :class:`HierasNetwork` is built from the same ingredients as the flat
:class:`~repro.dht.chord.ChordNetwork` — an id space, one id per peer, a
latency model — plus the peers' **landmark orders** from the distributed
binning scheme.  Layer 1 is the single global ring containing everyone;
each lower layer partitions the peers into rings of nodes sharing a
landmark order, and every node routes with Chord's rule inside each of
its rings using a ring-restricted finger table (§3.1, Table 2).

Routing (§3.2) is bottom-up: the lookup runs in the originator's lowest
ring until it reaches the node that would own the key *in that ring*
(its ring-successor), climbs one layer, and repeats until the global
ring delivers it to the key's true owner.  Because any ring containing
the global owner has the global owner as its ring-successor of the key,
upper-layer loops naturally contribute zero hops once the owner is
reached — the paper's early-exit check falls out of the semantics (the
protocol stack still performs it explicitly to avoid sending messages).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.binning import LandmarkOrders
from repro.core.ring import RingTableDirectory
from repro.dht.chord import ChordNetwork, _NO_PEERS, _PlanLayer
from repro.dht.ring_array import SortedRing
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["SUCCESSOR_LIST_POLICIES", "HierasNetwork", "LayeredFingerRow"]

#: Accepted ``successor_list_policy`` values (see :class:`HierasNetwork`).
SUCCESSOR_LIST_POLICIES = ("transitions", "always", "off")


def _by_code(peers: np.ndarray, codes: np.ndarray) -> dict[int, np.ndarray]:
    """``peers`` grouped by ``codes[peer]``: code → its peers."""
    wave = codes[peers]
    order = np.argsort(wave, kind="stable")
    present, starts = np.unique(wave[order], return_index=True)
    return dict(zip(present.tolist(), np.split(peers[order], starts[1:])))


@dataclass(frozen=True)
class LayeredFingerRow:
    """One row of the paper's Table 2: a finger across every layer.

    ``successors[0]`` is the layer-1 (global) successor; subsequent
    entries descend through the lower layers.  Each successor is a
    ``(node_id, peer, ring_name)`` triple — ring name of the successor's
    own layer-2 ring, as printed in Table 2's parentheses.
    """

    start: int
    interval: tuple[int, int]
    successors: tuple[tuple[int, int, str], ...]


class HierasNetwork(ChordNetwork):
    """The HIERAS overlay over a static set of peers.

    A :class:`~repro.dht.chord.ChordNetwork` — the global ring, the
    peer arrays, the membership API and the layered ring walk are the
    base class's — plus the lower layers: this class describes them in
    :meth:`_build_plan` and keeps them current in :meth:`_rebuild` and
    :meth:`_apply_wave`.

    Parameters
    ----------
    space, ids, latency:
        As for :class:`~repro.dht.chord.ChordNetwork`.
    landmark_orders:
        Output of :meth:`repro.core.binning.BinningScheme.orders` for
        these peers (row ``p`` binned peer ``p``).
    depth:
        Hierarchy depth ``m`` (layers including the global ring).
        Defaults to everything the orders provide; may be lowered to
        study depth effects with one binning pass (paper §4.5).
    successor_list_r:
        Length of the per-layer successor list every node maintains
        (§3.3: "a node must keep a successor-list of its r nearest
        successors in each layer").  Routing consults it as the §3.2
        acceleration; 0 disables the shortcut entirely.
    successor_list_policy:
        ``"transitions"`` (default) consults successor lists in every
        loop **above the lowest** — the message enters those loops
        already close to the key, which is exactly where §3.2 says the
        lists "accelerate the process"; the cold lowest loop routes
        with fingers alone, like the flat Chord baseline.  ``"always"``
        also shortcuts inside the lowest loop and ``"off"`` never does;
        both are exposed for the acceleration ablation.
    """

    span_label = "hieras"

    # §3.2: the global loop stops at the key's predecessor, which then
    # hands the request to the owner in one explicit hop.
    _greedy_global = False

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        landmark_orders: LandmarkOrders,
        latency: LatencyModel | None = None,
        depth: int | None = None,
        successor_list_r: int = 16,
        successor_list_policy: str = "transitions",
    ) -> None:
        n = len(ids)
        require(
            landmark_orders.n_nodes == n,
            f"landmark orders cover {landmark_orders.n_nodes} nodes, network has {n}",
        )
        depth = depth if depth is not None else landmark_orders.depth
        require_int(depth, 2, landmark_orders.depth, name="depth")
        require(
            successor_list_policy in SUCCESSOR_LIST_POLICIES,
            f"unknown successor_list_policy {successor_list_policy!r}",
        )
        self.depth = depth
        self.orders = landmark_orders
        self.successor_list_policy = successor_list_policy
        # Ring membership per lower layer (row ``k`` → layer ``k + 2``),
        # struct-of-arrays: each peer's interned ring *code* and its
        # position in that ring, one ``int32`` each.  Code ``c`` of a
        # layer names ``_name_pool[k][c]`` and has one slot in
        # ``_rings[k]`` (``None`` while the ring has no live member), so
        # no per-peer Python string ever sits on the hot path.
        self._name_pool = [list(pool) for pool in landmark_orders.name_pools[: depth - 1]]
        self._name_code_of = [{name: c for c, name in enumerate(pool)} for pool in self._name_pool]
        self._ring_code = np.array(landmark_orders.codes_per_layer[: depth - 1], dtype=np.int32)
        self._rings: list[list[SortedRing | None]] = []
        self._by_name: list[tuple[dict[str, SortedRing], np.ndarray]] | None = None
        #: Rings created, spliced, or retired by incremental waves — the
        #: O(wave) work certificate the maintenance tests pin.
        self.rings_spliced = 0
        #: ``directory.publish`` calls skipped because a ring's
        #: membership did not change across a full rebuild.
        self.publish_skips = 0
        self.directory = RingTableDirectory(space)
        # The base constructor ends in ``_rebuild``, which reads all of
        # the above.
        super().__init__(space, ids, latency=latency, successor_list_r=successor_list_r)

    # ------------------------------------------------------------------
    # construction / membership
    # ------------------------------------------------------------------
    def _intern(self, k: int, name: str) -> int:
        """Code for ring ``name`` at layer index ``k``; a new name gets an empty slot."""
        code = self._name_code_of[k].get(name)
        if code is None:
            code = len(self._name_pool[k])
            self._name_pool[k].append(name)
            self._name_code_of[k][name] = code
            self._rings[k].append(None)
        return code

    @property
    def global_ring(self) -> SortedRing:
        """The layer-1 ring of every live peer — the base class's ``ring``."""
        return self.ring

    def _rebuild(self) -> None:
        super()._rebuild()
        # Live peers in id order, so a stable sort by code lists each
        # ring's members in id order.
        alive = self.ring.peers
        prev = self._rings
        self._rings = []
        self._by_name = None
        self._pos_in_ring = np.full(self._ring_code.shape, -1, dtype=np.int32)
        for k, pool in enumerate(self._name_pool):
            codes = self._ring_code[k, alive]
            order = np.argsort(codes, kind="stable")
            members = alive[order]
            bounds = np.searchsorted(codes[order], np.arange(len(pool) + 1))
            self._pos_in_ring[k, members] = np.arange(len(members)) - bounds[codes[order]]
            rings: list[SortedRing | None] = []
            for c, name in enumerate(pool):
                peers = members[bounds[c] : bounds[c + 1]]
                ring = SortedRing(self.space, self._id_of_peer[peers], peers) if len(peers) else None
                old = prev[k][c] if prev else None
                if ring is None:
                    self.directory.drop(name)
                elif old is not None and np.array_equal(old.peers, ring.peers):
                    self.publish_skips += 1  # same members, so the same table
                else:
                    self.directory.publish(name, ring.ids, ring.peers)
                rings.append(ring)
            self._rings.append(rings)

    def _apply_wave(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Splice one membership wave into every layer's ring state.

        ``added``/``removed`` hold the peer indices whose liveness just
        flipped (``self._alive`` is already updated).  Each layer groups
        them by ring code and splices only those codes' slots — a ring
        born or retired fills or empties its own slot and no other ring
        moves — so the work is O(wave + touched ring sizes), and the
        state is bit-identical to :meth:`_rebuild` (tests pin this),
        because :meth:`SortedRing.splice` and the sorted rebuild agree
        on the unique sorted layout.
        """
        super()._apply_wave(added, removed)
        self._by_name = None
        for k, (rings, codes) in enumerate(zip(self._rings, self._ring_code)):
            leaving, joining = _by_code(removed, codes), _by_code(added, codes)
            for c in sorted(leaving.keys() | joining.keys()):
                leavers = leaving.get(c, _NO_PEERS)
                joiners = joining.get(c, _NO_PEERS)
                old = rings[c]
                self.rings_spliced += 1
                if old is None:
                    joiners = joiners[np.argsort(self._id_of_peer[joiners])]
                    ring = SortedRing(self.space, self._id_of_peer[joiners], joiners)
                elif len(leavers) == len(old) and not len(joiners):
                    ring = None  # its last members left: the ring retires
                else:
                    ring = old.splice(
                        self._pos_in_ring[k, leavers], self._id_of_peer[joiners], joiners
                    )
                rings[c] = ring
                if ring is None:
                    self.directory.drop(self._name_pool[k][c])
                else:
                    self.directory.publish(self._name_pool[k][c], ring.ids, ring.peers)
                    self._pos_in_ring[k, ring.peers] = np.arange(len(ring), dtype=np.int32)
            self._pos_in_ring[k, removed] = -1

    def add_peer(self, node_id: int, ring_names: list[str]) -> int:
        """Add a peer (offline equivalent of the §3.3 join protocol).

        ``ring_names`` gives the ring the new node joins at each lower
        layer (layer 2 first) — i.e. its landmark orders, measured by
        the caller against the landmark set.
        """
        return self.add_peers([node_id], [ring_names])[0]

    def add_peers(
        self, node_ids: list[int], ring_names_per_peer: list[list[str]]
    ) -> list[int]:
        """Add several peers in one membership change; returns indices.

        ``ring_names_per_peer[i]`` names peer ``i``'s rings (layer 2
        first), exactly as :meth:`add_peer` takes them.  Validation and
        the returned indices match the sequential calls, but the wave is
        spliced into the affected rings in one pass (no full rebuild); a
        rejected entry leaves the overlay untouched.
        """
        require(
            len(ring_names_per_peer) == len(node_ids),
            "need one ring-name list per added peer",
        )
        for ring_names in ring_names_per_peer:
            require(
                len(ring_names) == self.depth - 1,
                f"need {self.depth - 1} ring names, got {len(ring_names)}",
            )
        new_peers = self._admit(node_ids)
        if len(new_peers):
            codes = np.asarray(
                [[self._intern(k, names[k]) for names in ring_names_per_peer] for k in range(self.depth - 1)],
                dtype=np.int32,
            )
            self._ring_code = np.concatenate([self._ring_code, codes], axis=1)
            self._pos_in_ring = np.concatenate([self._pos_in_ring, np.full_like(codes, -1)], axis=1)
            self._apply_wave(new_peers, _NO_PEERS)
        return new_peers.tolist()

    def rebind_peers(
        self, peers: list[int], ring_names_per_peer: list[list[str]]
    ) -> None:
        """Re-assign lower-ring names for *offline* peers in place.

        Models §2.3's degraded joins: a node (re)joining while a
        landmark is down measures a blinded coordinate and lands in a
        different low-layer ring than its position warrants.  Only
        peers currently offline may be rebound (a live node's rings
        cannot silently change); a later :meth:`revive_peers` brings
        them back under the new names.  No rebuild happens here — the
        rings only change when membership does.
        """
        require(
            len(ring_names_per_peer) == len(peers),
            "need one ring-name list per rebound peer",
        )
        for peer, ring_names in zip(peers, ring_names_per_peer):
            require(not bool(self._alive[peer]), f"peer {peer} is alive; cannot rebind")
            require(
                len(ring_names) == self.depth - 1,
                f"need {self.depth - 1} ring names, got {len(ring_names)}",
            )
        for peer, ring_names in zip(peers, ring_names_per_peer):
            for k in range(self.depth - 1):
                self._ring_code[k, peer] = self._intern(k, ring_names[k])

    # ------------------------------------------------------------------
    # ring accessors
    # ------------------------------------------------------------------
    def ring_of(self, peer: int, layer: int) -> SortedRing:
        """The ring ``peer`` belongs to at ``layer`` (1 = global)."""
        return self._ring_at(peer, layer)[0]

    def ring_name_of(self, peer: int, layer: int) -> str:
        """Ring name of ``peer`` at a lower ``layer`` (2..depth)."""
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        k = layer - 2
        return self._name_pool[k][int(self._ring_code[k, peer])]

    def _rings_by_name(self, layer: int) -> tuple[dict[str, SortedRing], np.ndarray]:
        """One lower layer's live rings in name order, and their sizes.

        Built on the first call after a membership change and shared by
        every caller until the next one (sweeps poll these per cell).
        """
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        if self._by_name is None:
            self._by_name = []
            for pool, rings in zip(self._name_pool, self._rings):
                live = sorted((c for c, ring in enumerate(rings) if ring is not None), key=pool.__getitem__)
                sizes = np.asarray([len(rings[c]) for c in live], dtype=np.int64)
                sizes.setflags(write=False)
                self._by_name.append(({pool[c]: rings[c] for c in live}, sizes))
        return self._by_name[layer - 2]

    def rings_at_layer(self, layer: int) -> dict[str, SortedRing]:
        """All rings of one lower layer, keyed by ring name, in name order.

        The returned mapping is a cache shared by every caller (rebuilt
        on membership change); treat it as read-only.
        """
        return self._rings_by_name(layer)[0]

    def ring_sizes(self, layer: int) -> np.ndarray:
        """Member counts of the rings at one lower layer, in name order (read-only)."""
        return self._rings_by_name(layer)[1]

    def ring_table_host(self, name: str) -> int:
        """Peer storing ring ``name``'s ring table (§3.1)."""
        return self.directory.host_of(name, self.ring.ids, self.ring.peers)

    # ------------------------------------------------------------------
    # routing (§3.2): the base class walks this plan
    # ------------------------------------------------------------------
    def _succ_list_r(self, layer: int) -> int:
        """Successor-list width of one layer's loop under the policy."""
        if self.successor_list_policy == "off":
            return 0
        if self.successor_list_policy == "transitions" and layer == self.depth:
            return 0  # cold lowest loop: fingers only, like flat Chord
        return self.successor_list_r

    def _build_plan(self) -> list[_PlanLayer]:
        """Bottom-up (§3.2): the lowest layer's rings first, the global ring last."""
        lower = [
            _PlanLayer(
                layer,
                self._rings[layer - 2],
                self._ring_code[layer - 2],
                self._pos_in_ring[layer - 2],
                self._succ_list_r(layer),
                self._name_pool[layer - 2],
            )
            for layer in range(self.depth, 1, -1)
        ]
        (top,) = super()._build_plan()
        return [*lower, replace(top, succ_list_r=self._succ_list_r(1))]

    # ------------------------------------------------------------------
    # inspection (Table 2, §3.4 cost model)
    # ------------------------------------------------------------------
    def table2_rows(self, peer: int) -> list[LayeredFingerRow]:
        """The paper's Table 2 for ``peer``: fingers across all layers.

        Every row pairs the layer-1 successor with the lower-layer
        successors for the same finger interval; each successor is
        annotated with its own layer-2 ring name, as in the paper.
        """
        tables = [self.finger_table(peer, layer) for layer in range(1, self.depth + 1)]
        rows = []
        for entries in zip(*tables):
            base = entries[0]
            succ = tuple(
                (e.node_id, e.peer, self.ring_name_of(e.peer, 2)) for e in entries
            )
            rows.append(
                LayeredFingerRow(start=base.start, interval=base.interval, successors=succ)
            )
        return rows

    def distinct_finger_count(self, peer: int, layer: int) -> int:
        """Number of *distinct* finger nodes of ``peer`` at ``layer``.

        The §3.4 cost discussion notes lower-layer finger tables hold
        fewer distinct nodes; this is the quantity behind that claim.
        """
        return len({e.node_id for e in self.finger_table(peer, layer)})

    def maintenance_summary(self, *, successor_list_len: int = 4, sample: int | None = 64,
                            seed: int = 0) -> dict[str, float]:
        """Quantified §3.4 cost model (averages per node).

        Reports, per node: distinct finger-table entries per layer,
        successor-list entries (one list per layer), and how many ring
        tables the node hosts.  ``sample`` bounds the number of nodes
        whose finger tables are materialised (None = all).
        """
        rng = make_rng(seed)
        peers = self.ring.peers
        if sample is not None and sample < len(peers):
            peers = rng.choice(peers, size=sample, replace=False)
        finger_entries = {
            layer: float(
                np.mean([self.distinct_finger_count(int(p), layer) for p in peers])
            )
            for layer in range(1, self.depth + 1)
        }
        hosts: dict[int, int] = {}
        for name in self.directory.names():
            h = self.ring_table_host(name)
            hosts[h] = hosts.get(h, 0) + 1
        succ_entries = sum(
            min(successor_list_len, len(self.ring_of(int(peers[0]), layer)) - 1)
            for layer in range(1, self.depth + 1)
        )
        return {
            "depth": float(self.depth),
            "n_rings": float(
                sum(len(self.rings_at_layer(layer)) for layer in range(2, self.depth + 1)) + 1
            ),
            "avg_distinct_fingers_total": float(sum(finger_entries.values())),
            **{
                f"avg_distinct_fingers_layer{layer}": v
                for layer, v in sorted(finger_entries.items())
            },
            "successor_list_entries": float(succ_entries),
            "avg_ring_tables_hosted": float(
                sum(hosts.values()) / max(self.n_peers, 1)
            ),
        }
