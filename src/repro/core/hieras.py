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
from repro.core.ring import RingTableDirectory, ring_id
from repro.dht.chord import ChordNetwork, _NO_PEERS, _PlanLayer
from repro.dht.ring_array import SortedRing
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = ["SUCCESSOR_LIST_POLICIES", "HierasNetwork", "LayeredFingerRow"]

#: Accepted ``successor_list_policy`` values (see :class:`HierasNetwork`).
SUCCESSOR_LIST_POLICIES = ("transitions", "always", "off")


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
        require(
            2 <= depth <= landmark_orders.depth,
            f"depth must be in [2, {landmark_orders.depth}], got {depth}",
        )
        require(
            successor_list_policy in SUCCESSOR_LIST_POLICIES,
            f"unknown successor_list_policy {successor_list_policy!r}",
        )
        self.depth = depth
        self.orders = landmark_orders
        self.successor_list_policy = successor_list_policy
        # Ring membership per lower layer, struct-of-arrays: every peer
        # carries one ``int32`` *pool code* per layer (index 0 →
        # layer 2) and the per-layer pool maps codes back to ring-name
        # strings — no per-peer Python string ever sits on the hot
        # path, which is what keeps million-peer networks in budget.
        self._name_pool: list[list[str]] = []
        self._name_code_of: list[dict[str, int]] = []
        self._name_codes: list[np.ndarray] = []
        pools = getattr(landmark_orders, "name_pools", None)
        codes = getattr(landmark_orders, "codes_per_layer", None)
        for k in range(depth - 1):
            if pools is not None and codes is not None:
                pool = [str(s) for s in pools[k]]
                layer_codes = np.asarray(codes[k], dtype=np.int32)
            else:
                uniq, inverse = np.unique(
                    np.asarray(landmark_orders.names_per_layer[k], dtype=object),
                    return_inverse=True,
                )
                pool = [str(u) for u in uniq]
                layer_codes = inverse.astype(np.int32)
            self._name_pool.append(pool)
            self._name_code_of.append({name: c for c, name in enumerate(pool)})
            self._name_codes.append(layer_codes)
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
        """Pool code for ``name`` at layer index ``k`` (interning it)."""
        code = self._name_code_of[k].get(name)
        if code is None:
            code = len(self._name_pool[k])
            self._name_pool[k].append(name)
            self._name_code_of[k][name] = code
        return code

    def _publish(
        self, name: str, ring: SortedRing, prev: dict[str, SortedRing] | None
    ) -> None:
        """Publish one ring table, skipping unchanged memberships."""
        if prev is not None:
            old = prev.get(name)
            if (
                old is not None
                and np.array_equal(old.ids, ring.ids)
                and np.array_equal(old.peers, ring.peers)
            ):
                self.publish_skips += 1
                return
        self.directory.publish(name, ring.ids, ring.peers)

    def _refresh_layer_caches(self) -> None:
        # Per-layer accessor caches: ring membership only changes in
        # ``_rebuild``/``_apply_wave``, so the name->ring maps and size
        # vectors sweeps poll per cell are materialized once per
        # membership change instead of per call.
        self._rings_by_name: list[dict[str, SortedRing]] = [
            dict(zip(names, rings))
            for names, rings in zip(self._ring_names, self._rings)
        ]
        self._ring_size_arrays: list[np.ndarray] = []
        for rings in self._rings:
            sizes = np.asarray([len(r) for r in rings], dtype=np.int64)
            sizes.setflags(write=False)
            self._ring_size_arrays.append(sizes)

    @property
    def global_ring(self) -> SortedRing:
        """The layer-1 ring of every live peer — the base class's ``ring``."""
        return self.ring

    def _rebuild(self) -> None:
        super()._rebuild()
        # Live peers in id order; the (code, id) sort below has one
        # result whatever order it starts from, since ids are unique.
        alive = self.ring.peers
        ids = self.ring.ids
        n_total = len(self._id_of_peer)

        # Lower layers: factorise live peers' interned ring codes, build
        # one SortedRing per distinct name (listed in ring-name order,
        # matching the incremental path), record each peer's ring + slot.
        prev_tables = getattr(self, "_rings_by_name", None)
        self._rings: list[list[SortedRing]] = []
        self._ring_names: list[list[str]] = []
        self._ring_of_peer = np.full((self.depth - 1, n_total), -1, dtype=np.int32)
        self._pos_in_ring = np.full((self.depth - 1, n_total), -1, dtype=np.int32)
        known_names = set(self.directory.names())
        seen_names: set[str] = set()
        for k in range(self.depth - 1):
            pool = self._name_pool[k]
            codes_alive = self._name_codes[k][alive]
            grouped = np.lexsort((ids, codes_alive))
            codes_sorted = codes_alive[grouped]
            members_sorted = alive[grouped]
            ids_sorted = ids[grouped]
            present = np.unique(codes_alive)
            starts = np.searchsorted(codes_sorted, present, side="left")
            ends = np.searchsorted(codes_sorted, present, side="right")
            by_name = sorted(range(len(present)), key=lambda i: pool[int(present[i])])
            layer_rings: list[SortedRing] = []
            layer_names: list[str] = []
            prev = prev_tables[k] if prev_tables is not None else None
            for gi in by_name:
                name = pool[int(present[gi])]
                a, b = int(starts[gi]), int(ends[gi])
                ring = SortedRing(self.space, ids_sorted[a:b], members_sorted[a:b])
                code = len(layer_rings)
                layer_rings.append(ring)
                layer_names.append(name)
                self._ring_of_peer[k, ring.peers] = code
                self._pos_in_ring[k, ring.peers] = np.arange(len(ring), dtype=np.int32)
                self._publish(name, ring, prev)
                seen_names.add(name)
            self._rings.append(layer_rings)
            self._ring_names.append(layer_names)
        for stale in sorted(known_names - seen_names):
            self.directory.drop(stale)
        self._refresh_layer_caches()

    def _apply_wave(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Splice one membership wave into every layer's ring state.

        ``added``/``removed`` hold the peer indices whose liveness just
        flipped (``self._alive`` is already updated).  Only the rings
        those peers belong to are rebuilt/spliced — O(wave + touched
        ring sizes) work instead of the full rebuild's O(N log N) sort
        plus every ring of every layer — and the resulting state is
        bit-identical to :meth:`_rebuild` (tests pin this), because
        :meth:`SortedRing.splice` and the argsort rebuild agree on the
        unique sorted layout and rings stay listed in name order.
        """
        super()._apply_wave(added, removed)
        for k in range(self.depth - 1):
            pool = self._name_pool[k]
            names_k = self._ring_names[k]
            rings_k = self._rings[k]
            index_of = {nm: i for i, nm in enumerate(names_k)}
            layer_codes = self._name_codes[k]
            rm_by_name: dict[str, list[int]] = {}
            for p in removed.tolist():
                rm_by_name.setdefault(pool[int(layer_codes[p])], []).append(p)
            add_by_name: dict[str, list[int]] = {}
            for p in added.tolist():
                add_by_name.setdefault(pool[int(layer_codes[p])], []).append(p)

            touched: dict[str, SortedRing | None] = {}
            for name in sorted(set(rm_by_name) | set(add_by_name)):
                leavers = rm_by_name.get(name, [])
                joiners = add_by_name.get(name, [])
                old_idx = index_of.get(name)
                old_ring = rings_k[old_idx] if old_idx is not None else None
                self.rings_spliced += 1
                if old_ring is None:
                    members = np.asarray(joiners, dtype=np.int64)
                    m_ids = self._id_of_peer[members]
                    srt = np.argsort(m_ids)
                    new_ring: SortedRing | None = SortedRing(
                        self.space, m_ids[srt], members[srt]
                    )
                elif len(leavers) == len(old_ring) and not joiners:
                    new_ring = None  # its last members left: the ring dies
                else:
                    lv = np.asarray(leavers, dtype=np.int64)
                    jn = np.asarray(joiners, dtype=np.int64)
                    new_ring = old_ring.splice(
                        self._pos_in_ring[k, lv], self._id_of_peer[jn], jn
                    )
                touched[name] = new_ring
                if new_ring is None:
                    self.directory.drop(name)
                else:
                    self.directory.publish(name, new_ring.ids, new_ring.peers)
            if len(removed):
                self._ring_of_peer[k, removed] = -1
                self._pos_in_ring[k, removed] = -1

            births = [
                nm for nm, r in touched.items() if r is not None and nm not in index_of
            ]
            deaths = {nm for nm, r in touched.items() if r is None}
            if births or deaths:
                # The ring *set* changed: renumber so rings stay listed
                # in name order (one vectorized old→new code remap).
                new_names = sorted((set(names_k) - deaths) | set(births))
                remap = np.full(len(names_k), -1, dtype=np.int32)
                new_rings: list[SortedRing] = []
                for new_idx, nm in enumerate(new_names):
                    old_idx = index_of.get(nm)
                    if old_idx is not None:
                        remap[old_idx] = np.int32(new_idx)
                        ring = touched.get(nm, rings_k[old_idx])
                    else:
                        ring = touched[nm]
                    assert ring is not None
                    new_rings.append(ring)
                col = self._ring_of_peer[k]
                live = col >= 0
                col[live] = remap[col[live]]
                self._ring_names[k] = new_names
                self._rings[k] = new_rings
            else:
                self._rings[k] = [
                    touched.get(nm, ring) for nm, ring in zip(names_k, rings_k)
                ]
            # Re-index members of every touched, surviving ring.
            idx_by_name = {nm: i for i, nm in enumerate(self._ring_names[k])}
            for nm, ring in touched.items():
                if ring is None:
                    continue
                i = idx_by_name[nm]
                self._ring_of_peer[k, ring.peers] = i
                self._pos_in_ring[k, ring.peers] = np.arange(len(ring), dtype=np.int32)
        self._refresh_layer_caches()

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
            for k in range(self.depth - 1):
                codes = np.asarray(
                    [self._intern(k, names[k]) for names in ring_names_per_peer],
                    dtype=np.int32,
                )
                self._name_codes[k] = np.concatenate([self._name_codes[k], codes])
            pad = np.full((self.depth - 1, len(new_peers)), -1, dtype=np.int32)
            self._ring_of_peer = np.concatenate([self._ring_of_peer, pad], axis=1)
            self._pos_in_ring = np.concatenate([self._pos_in_ring, pad.copy()], axis=1)
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
                self._name_codes[k][peer] = self._intern(k, ring_names[k])

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
        return self._name_pool[k][int(self._name_codes[k][peer])]

    def rings_at_layer(self, layer: int) -> dict[str, SortedRing]:
        """All rings of one lower layer, keyed by ring name.

        The returned mapping is a cache shared by every caller (rebuilt
        on membership change); treat it as read-only.
        """
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        return self._rings_by_name[layer - 2]

    def ring_sizes(self, layer: int) -> np.ndarray:
        """Member counts of the rings at one lower layer (read-only)."""
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        return self._ring_size_arrays[layer - 2]

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
                self._ring_of_peer[layer - 2],
                self._pos_in_ring[layer - 2],
                self._succ_list_r(layer),
                self._ring_names[layer - 2],
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
                LayeredFingerRow(start=base.start, interval=base.interval, successors=succ)  # lint: allow-loop-alloc -- Table 2 inspection API; routing never calls this
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
            "n_rings": float(sum(len(layer) for layer in self._rings) + 1),
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

    def ring_id_of(self, name: str) -> int:
        """Ring id (hash of ring name) in this network's id space."""
        return ring_id(self.space, name)
