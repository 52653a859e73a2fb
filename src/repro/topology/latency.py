"""Latency models: pairwise shortest-path delay queries.

Three strategies, all implementing :class:`repro.topology.base.LatencyModel`:

* :class:`TransitStubLatencyModel` — **exact, O(1)-per-query,
  memory-light** model for transit-stub topologies.  Because every stub
  domain hangs off the core through a single border link, a shortest
  path decomposes as ``stub → border → core → border → stub`` and the
  model stores one fused ``border distance + uplink`` per router, the
  (tiny) transit-core APSP and per-stub all-pairs blocks for the
  same-domain lanes.  The §4.1 substrate gives every intra-stub link
  one delay, so a block is **hop counts** — ``uint8``, one byte per
  router pair stored once (the packed upper triangle of a symmetric
  distance), from one bit-parallel BFS over all of a stub's routers at
  once (:func:`_bfs_hops`) — read through one running-sum table of that
  delay.  This is what makes paper-scale simulation (10 000 routers,
  100 000 requests × ~13 hops) cheap and a million routers fit.
* :class:`APSPLatencyModel` — all-pairs matrix for general graphs
  (Inet, BRITE), in row blocks of chunked Dijkstra sweeps stored as
  ``uint16`` milliseconds (link delays are integral, so the rounding is
  exact): 10 000 routers cost 200 MB.
* :class:`CoordinateLatencyModel` — Euclidean delays from plane
  coordinates; used by synthetic tests and micro-examples.

Both block models are a :class:`_BlockModel`: blocks in a pool of slots
under a byte budget, filled on first use, evicted least recently used.
"Eager" is the same object with every block filled at construction
(:func:`latency_model_for` decides): a budget changes time and memory,
never an answer.

:class:`NoisyLatencyModel` wraps any model with multiplicative
measurement noise, emulating the paper's observation (§2.2) that *ping*
is "not very accurate" yet adequate for the binning scheme.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.metrics.registry import MetricsRegistry
from repro.topology.base import LatencyModel, Topology, index_lanes
from repro.topology.transit_stub import TransitStubTopology
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = [
    "APSPLatencyModel",
    "TransitStubLatencyModel",
    "CoordinateLatencyModel",
    "NoisyLatencyModel",
    "latency_model_for",
]


class _BlockModel(LatencyModel):
    """A model answering from equal-shaped blocks held in a pool of slots.

    ``_pool[_slot_of[b]]`` is block ``b`` while ``_slot_of[b] >= 0``.
    The pool comes from ``np.zeros``, so a slot costs no resident memory
    until :meth:`_fill` writes a block into it, and residency lives in
    ``_slot_of`` alone — never in a sentinel written through the pool.
    There are ``cache_bytes // block bytes`` slots (default: one per
    block): the budget is a hard ceiling on resident block bytes, and
    once every slot is taken a cold block replaces the least recently
    used one.  A footprint within both the budget and ``eager_bytes``
    (default: any) is filled whole at construction.
    """

    #: The graph blocks are filled from, held (and counted) beside the pool.
    _graph: csr_matrix

    def _init_pool(
        self,
        n_blocks: int,
        shape: tuple[int, ...],
        dtype: type,
        cache_bytes: int | None,
        eager_bytes: int | None,
    ) -> None:
        size = self._block_bytes = math.prod(shape) * np.dtype(dtype).itemsize
        footprint = n_blocks * size
        budget = footprint if cache_bytes is None else int(cache_bytes)
        require(budget >= size, f"a cache budget of {budget} bytes is below one latency block ({size} bytes)")
        n_slots = min(n_blocks, budget // size)
        self._pool = np.zeros((n_slots, *shape), dtype=dtype)
        self._slot_of = np.full(n_blocks, -1, dtype=np.int64)
        self._block_in = np.zeros(n_slots, dtype=np.int64)
        self._stamp = np.zeros(n_slots, dtype=np.int64)  # recency, for eviction
        self._tick = 0
        self._evicting = n_slots < n_blocks
        self._resident = 0  # slots holding a block
        #: Blocks filled (construction included) / lanes answered from a
        #: block that was already resident / resident blocks replaced.
        self.cache_misses = self.cache_hits = self.evictions = 0
        if not self._evicting and (eager_bytes is None or footprint <= eager_bytes):
            for block in range(n_blocks):
                self._load(block)

    def _fill(self, block: int, out: np.ndarray) -> None:
        """Compute block ``block`` into the slot ``out``."""
        raise NotImplementedError

    def _load(self, block: int) -> None:
        slot = self._resident
        if slot == len(self._pool):
            slot = int(self._stamp.argmin())
            self._slot_of[self._block_in[slot]] = -1
            self.evictions += 1
        self._fill(block, self._pool[slot])
        self._resident = max(self._resident, slot + 1)
        self.cache_misses += 1
        self._slot_of[block] = slot
        self._block_in[slot] = block
        self._stamp[slot] = self._tick

    def _slots(self, blocks: np.ndarray) -> np.ndarray | None:
        """Each lane's slot if every lane's block is resident (the lanes
        then count as hits), else ``None``: go through :meth:`_groups`."""
        slot = self._slot_of[blocks]
        if self._resident < len(self._slot_of):
            if (slot < 0).any():
                return None
            if self._evicting:
                self._tick += 1
                self._stamp[slot] = self._tick
        self.cache_hits += blocks.size
        return slot

    def _groups(self, blocks: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(lanes, slots)`` over all lanes, filling what is cold.

        One group, unless the call needs more distinct blocks than there
        are slots: then ascending runs of that many blocks, each made
        resident (and read by the caller) before the next may evict it.
        """
        needed = np.unique(blocks)
        for start in range(0, needed.size, len(self._pool)):
            group = needed[start : start + len(self._pool)]
            lanes = np.flatnonzero((blocks >= group[0]) & (blocks <= group[-1]))
            mine, slot = blocks[lanes], self._slot_of[group]
            self.cache_hits += int((self._slot_of[mine] >= 0).sum())
            # Stamp the group's resident blocks first, so no fill evicts one.
            self._tick += 1
            self._stamp[slot[slot >= 0]] = self._tick
            for block in group[slot < 0].tolist():
                self._load(block)
            yield lanes, self._slot_of[mine]

    @property
    def resident_bytes(self) -> int:
        """Bytes held, by arithmetic: every array attribute and the
        graph's, the pool counted by its *filled* slots only."""
        held = [a for a in vars(self).values() if isinstance(a, np.ndarray)]
        held += [self._graph.data, self._graph.indices, self._graph.indptr]
        return sum(a.nbytes for a in held) - self._pool.nbytes + self._resident * self._block_bytes

    def stats(self) -> dict[str, int]:
        """What the model holds and what its pool did — seed-deterministic."""
        keys = ("resident_bytes", "cache_misses", "cache_hits", "evictions")
        return {key: getattr(self, key) for key in keys}

    def publish(self, registry: MetricsRegistry) -> None:
        """Set :meth:`stats` as ``topology.latency.*`` gauges — for a bench
        to call at a phase end; ``pairs`` never does."""
        for key, value in self.stats().items():
            registry.set_gauge(f"topology.latency.{key}", value)


class APSPLatencyModel(_BlockModel):
    """All-pairs shortest-path delays in ``uint16`` row blocks.

    Parameters
    ----------
    topology:
        Source graph; link delays must be integral milliseconds (they
        are, for every generator in :mod:`repro.topology`) so that the
        ``uint16`` quantisation is exact.
    chunk:
        Source rows per block — one Dijkstra sweep, so peak ``float64``
        scratch is ``chunk * n_routers * 8`` bytes.
    cache_bytes, eager_bytes:
        See :class:`_BlockModel`; the defaults hold and fill the whole
        matrix.  A lazy model stays queryable past the dense matrix's
        O(n²) wall, and meets a disconnected graph at its first fill.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        chunk: int = 1024,
        cache_bytes: int | None = None,
        eager_bytes: int | None = None,
    ) -> None:
        require(chunk >= 1, "chunk must be >= 1")
        n = self.n_routers = topology.n_routers
        self.chunk = min(int(chunk), n)
        self._graph = topology.csr()
        self._init_pool(-(-n // self.chunk), (self.chunk, n), np.uint16, cache_bytes, eager_bytes)

    def _fill(self, block: int, out: np.ndarray) -> None:
        start = block * self.chunk
        stop = min(start + self.chunk, self.n_routers)
        rows = dijkstra(self._graph, directed=False, indices=np.arange(start, stop))
        if np.isinf(rows).any():
            raise ValueError("topology is disconnected; latency undefined")
        require(float(rows.max()) < 65535, "path delay overflows uint16 ms")
        out[: stop - start] = np.round(rows)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us, vs = index_lanes(us, vs)
        block, row = np.divmod(us, self.chunk)
        slot = self._slots(block)
        if slot is not None:
            return self._pool[slot, row, vs].astype(np.float64)
        out = np.empty(us.size, dtype=np.float64)
        for lanes, slot in self._groups(block):
            out[lanes] = self._pool[slot, row[lanes], vs[lanes]]
        return out


#: Most hops a ``uint8`` block entry can count: the search below runs one
#: level past the deepest pair, and a 256th level would wrap.
_MAX_HOPS = 254


def _bfs_hops(sub: csr_matrix, hops: np.ndarray) -> int:
    """All-pairs hop counts of one stub's sub-graph into ``hops`` (n × n ``uint8``).

    One breadth-first search from all ``n`` routers at once: bit ``s``
    of row ``v`` of ``visited`` says source ``s`` has reached ``v`` (64
    sources per word), a level ORs each router's neighbours' frontier
    rows, and every level adds 1 to each pair still unvisited — so a
    pair's count ends as its hop distance, accumulated straight into the
    caller's bytes.  Link weights are not read.  Returns the number of
    levels run, which is also what a pair *never* reached ends on (one
    more than the largest finite count).
    """
    n = sub.shape[0]
    if sub.nnz == 0:
        hops[...] = ~np.eye(n, dtype=bool)
        return 1
    width = -(-n // 64) * 64
    visited = np.packbits(np.eye(n, width, dtype=bool), axis=1, bitorder="little").view("<u8")
    frontier = visited.copy()
    # ``reduceat`` gives a router without links the slot at its start
    # (and rejects a start past the end): clamp, then zero those rows.
    starts = np.minimum(sub.indptr[:-1], sub.nnz - 1)
    isolated = sub.indptr[:-1] == sub.indptr[1:]
    hops[...] = 0
    levels = 0
    while frontier.any():
        require(levels <= _MAX_HOPS, f"sub-graph is more than {_MAX_HOPS} hops deep")
        unvisited = ~visited
        hops += np.unpackbits(unvisited.view(np.uint8), axis=1, count=n, bitorder="little")
        levels += 1
        frontier = np.bitwise_or.reduceat(frontier[sub.indices], starts, axis=0)
        frontier[isolated] = 0
        frontier &= unvisited
        visited |= frontier
    return levels


def _hop_ms(delay: float) -> np.ndarray:
    """``float32`` delay of 0 … ``_MAX_HOPS`` hops over links of one ``delay``.

    A running sum — the repeated addition Dijkstra performs along a
    path — **not** ``hops * delay``: the two differ in the last bit for
    a delay like 0.1, and a block promises Dijkstra's answer.
    """
    return np.concatenate(([0.0], np.cumsum(np.full(_MAX_HOPS, delay)))).astype(np.float32)


def _stub_adjacency(topology: TransitStubTopology) -> tuple[np.ndarray, np.ndarray, csr_matrix]:
    """Intra-stub links regrouped by domain: ``(members, starts, adj)``.

    ``members`` lists the stub routers domain by domain, ascending
    router id within a domain (the ``local_index`` order); domain ``d``
    is ``members[starts[d]:starts[d + 1]]``, and ``adj`` is the CSR
    over those positions holding same-domain links only, so a stub's
    sub-graph is the contiguous ``adj[lo:hi, lo:hi]``.
    """
    dom_of = topology.stub_domain_of
    stub_ids = np.flatnonzero(dom_of >= 0)
    # ``stub_ids`` ascends, so a stable sort keeps ids ascending per domain.
    members = stub_ids[np.argsort(dom_of[stub_ids], kind="stable")]
    starts = np.searchsorted(dom_of[members], np.arange(topology.n_stub_domains + 1))
    position = np.zeros(topology.n_routers, dtype=np.int64)
    position[members] = np.arange(len(members))
    coo = topology.csr().tocoo()
    row_dom = dom_of[coo.row]
    keep = (row_dom >= 0) & (row_dom == dom_of[coo.col])
    adj = csr_matrix(
        (coo.data[keep], (position[coo.row[keep]], position[coo.col[keep]])),
        shape=(len(members), len(members)),
    )
    return members, starts, adj


class TransitStubLatencyModel(_BlockModel):
    """Exact hierarchical latency model for transit-stub topologies.

    Correctness rests on two structural facts of
    :func:`repro.topology.transit_stub.generate_transit_stub` output:

    1. every stub domain has exactly one border uplink, so no shortest
       path between routers outside a stub ever crosses it (it would
       have to enter and leave through the same link);
    2. within a stub, the internal shortest path never benefits from a
       detour through the core (the detour re-crosses the 20 ms uplink
       twice and, by the triangle inequality on the stub's own metric,
       cannot beat the internal path).

    Cross-stub lanes never touch a block: the model keeps the tiny
    transit-core APSP and, per router, its gateway and the fused
    ``border distance + uplink`` (border distances from **one** Dijkstra
    over the intra-stub links started at all border routers together).
    Same-domain lanes read per-stub blocks, pooled as in
    :class:`_BlockModel` (the defaults hold and fill every block).  A
    stub's distances are symmetric, so a block is the packed upper
    triangle of the ``size × size`` square, diagonal included, row-major:
    ``size * (size + 1) // 2`` entries, and the pair ``(lu, lv)`` reads
    entry ``_row_start[min(lu, lv)] + max(lu, lv)``.

    Blocks are ``uint8`` hop counts read through :func:`_hop_ms` where
    the data allow it: every intra-stub link carries
    ``params.intra_stub_delay`` and no router is more than 127 hops from
    its border, so no stub is more than ``_MAX_HOPS`` across — true of
    every generated topology.  Anything else (a hand-built stub with
    mixed delays, duplicate links the CSR summed, a delay off the table,
    a 300-router path) makes the blocks ``float32`` milliseconds from
    per-stub Dijkstra: four times the bytes behind the same queries,
    decided from the data, no flag.

    ``tests/test_latency.py`` cross-checks this model against plain
    Dijkstra on every generated instance, ``test_latency_budgets.py`` too.
    """

    def __init__(
        self,
        topology: TransitStubTopology,
        *,
        cache_bytes: int | None = None,
        eager_bytes: int | None = None,
    ) -> None:
        require(
            isinstance(topology, TransitStubTopology),
            "TransitStubLatencyModel requires a TransitStubTopology",
        )
        self.topology = topology
        n = topology.n_routers
        n_transit = len(topology.transit_routers)
        params = topology.params
        dom_of = topology.stub_domain_of

        # Core APSP on the transit-only subgraph (transit routers are
        # laid out first, so the submatrix slice is contiguous).
        core = dijkstra(topology.csr()[:n_transit, :n_transit], directed=False)
        if np.isinf(core).any():
            raise ValueError("transit core is disconnected")

        # ``_graph`` holds intra-stub links only, so distinct stubs stay
        # disconnected and the nearest border router is the router's own.
        stub_ids, self._starts, self._graph = _stub_adjacency(topology)
        borders = self._starts[:-1] + topology.local_index[topology.border_router_of_domain]
        to_border = dijkstra(self._graph, directed=False, indices=borders, min_only=True)
        if np.isinf(to_border).any():
            bad = stub_ids[np.isinf(to_border)][0]
            raise ValueError(f"stub domain {dom_of[bad]} is internally disconnected")

        # Per-router tables for vectorised queries.  A border distance is
        # a block entry, so it is rounded through the blocks' float32
        # (``near``).
        # The ``_u``/``_v`` pairs are one fact seen from either side of a
        # lane: a transit router's "domain" differs by side, so ``==``
        # alone finds the same-stub lanes, and the source's gateway is
        # pre-multiplied into a row offset of the flattened core matrix
        # (a 1-D gather is about twice as fast as ``core[gu, gv]``).
        near = to_border.astype(np.float32)
        edge = np.zeros(n, dtype=np.float64)
        edge[stub_ids] = near + np.float64(params.stub_transit_delay)
        gateway = np.arange(n, dtype=np.int64)
        gateway[stub_ids] = topology.gateway_of_domain[dom_of[stub_ids]]
        self._gw_u, self._gw_v = gateway * n_transit, gateway
        self._dom_u, self._dom_v = np.where(dom_of < 0, [[-1], [-2]], dom_of)
        self._core, self._edge, self._local = core.ravel(), edge, topology.local_index

        links, ms = self._graph.data, _hop_ms(params.intra_stub_delay)
        uniform = links.size == 0 or links.min() == links.max() == params.intra_stub_delay
        #: Hop → ms table; ``None`` when the blocks hold float32 ms themselves.
        self._ms = ms if uniform and near.max() <= ms[_MAX_HOPS // 2] else None
        size = params.stub_domain_size
        dtype = np.float32 if self._ms is None else np.uint8
        # Row ``i`` of the triangle holds columns ``i …`` and starts at
        # entry ``_row_start[i] + i``.
        rows = np.arange(size, dtype=np.int64)
        self._row_start = rows * size - rows * (rows + 1) // 2
        packed = (size * (size + 1) // 2,)
        self._init_pool(topology.n_stub_domains, packed, dtype, cache_bytes, eager_bytes)

    def _fill(self, block: int, out: np.ndarray) -> None:
        lo, hi = self._starts[block], self._starts[block + 1]
        sub = self._graph[lo:hi, lo:hi]
        size = len(self._row_start)
        square = np.zeros((size, size), dtype=out.dtype)
        if self._ms is None:
            square[: hi - lo, : hi - lo] = dijkstra(sub, directed=False)
        else:
            _bfs_hops(sub, square[: hi - lo, : hi - lo])
        out[:] = square[~np.tri(size, k=-1, dtype=bool)]

    def _block_ms(self, slot: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        entries = self._pool[slot, self._row_start[np.minimum(lu, lv)] + np.maximum(lu, lv)]
        return entries if self._ms is None else self._ms[entries]

    def pair(self, u: int, v: int) -> float:
        if self._dom_u[u] == self._dom_v[v]:
            return super().pair(u, v)
        return float(self._edge[u] + self._edge[v] + self._core[self._gw_u[u] + self._gw_v[v]])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us, vs = index_lanes(us, vs)
        dom = self._dom_u[us]
        out = self._edge[us] + self._edge[vs]
        hop = self._gw_u[us]
        hop += self._gw_v[vs]
        out += self._core[hop]
        same = (dom == self._dom_v[vs]).nonzero()[0]
        if same.size:
            dom, lu, lv = dom[same], self._local[us[same]], self._local[vs[same]]
            slot = self._slots(dom)
            if slot is not None:
                out[same] = self._block_ms(slot, lu, lv)
            else:
                for lanes, slot in self._groups(dom):
                    out[same[lanes]] = self._block_ms(slot, lu[lanes], lv[lanes])
        return out


class CoordinateLatencyModel(LatencyModel):
    """Euclidean delays from plane coordinates.

    A synthetic stand-in used by unit tests and micro-examples where no
    router graph exists; delay between two points is their Euclidean
    distance times ``scale`` milliseconds.
    """

    def __init__(self, coords: np.ndarray, *, scale: float = 1.0) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        require(coords.ndim == 2 and coords.shape[1] == 2, "coords must be (n, 2)")
        require(scale > 0, "scale must be positive")
        self.coords = coords
        self.scale = float(scale)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        a = self.coords[np.asarray(us, dtype=np.int64)]
        b = self.coords[np.asarray(vs, dtype=np.int64)]
        return np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) * self.scale


class NoisyLatencyModel(LatencyModel):
    """Wraps a latency model with multiplicative *ping* noise.

    Each query is perturbed by an independent lognormal factor with the
    given ``sigma``; used by the binning-noise ablation to emulate
    imprecise latency measurement (paper §2.2).  Because noise is drawn
    per query, this wrapper is intended for *measurement* paths (the
    binning scheme), not for routing-latency accounting.
    """

    def __init__(
        self,
        inner: LatencyModel,
        *,
        sigma: float = 0.2,
        seed: int | np.random.Generator = 0,
    ) -> None:
        require(sigma >= 0, "sigma must be >= 0")
        self.inner = inner
        self.sigma = float(sigma)
        self._rng = make_rng(seed)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        clean = self.inner.pairs(us, vs)
        if self.sigma == 0:
            return clean
        noise = self._rng.lognormal(mean=0.0, sigma=self.sigma, size=np.shape(clean))
        return clean * noise


def latency_model_for(
    topology: Topology,
    *,
    streaming_threshold_bytes: int = 1 << 30,
    streaming_cache_bytes: int = 4 << 30,
    **kwargs: object,
) -> LatencyModel:
    """Pick the best latency model for a topology.

    Transit-stub instances get the exact hierarchical model — unless the
    generator added redundancy edges (extra uplinks / stub-stub links),
    which break its single-uplink precondition; those, and every general
    graph, get the APSP row blocks.  The two numbers are the models'
    ``eager_bytes`` and ``cache_bytes``: blocks are filled at
    construction while they total at most ``streaming_threshold_bytes``
    (every standard sweep, by far), otherwise on first use — same
    answers either way — and ``streaming_cache_bytes`` is the hard
    ceiling on resident block bytes (below one block: an error; far
    below the working set: the same blocks re-filled on every chunk —
    a million-router transit-stub instance is ~2 k blocks of 0.13 MB).
    """
    exact = isinstance(topology, TransitStubTopology) and not topology.params.has_shortcuts
    model = TransitStubLatencyModel if exact else APSPLatencyModel
    # A keyword the chosen model does not take is its TypeError.
    return model(
        topology, cache_bytes=streaming_cache_bytes, eager_bytes=streaming_threshold_bytes, **kwargs
    )
