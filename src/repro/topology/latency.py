"""Latency models: pairwise shortest-path delay queries.

Three strategies, all implementing :class:`repro.topology.base.LatencyModel`:

* :class:`TransitStubLatencyModel` — **exact, O(1)-per-query,
  memory-light** model for transit-stub topologies.  Because every stub
  domain hangs off the core through a single border link, a shortest
  path decomposes as ``stub → border → core → border → stub`` and the
  model only stores per-stub APSP blocks plus the (tiny) transit-core
  APSP.  This is what makes paper-scale simulation (10 000 routers,
  100 000 requests × ~13 hops) cheap.  The §4.1 substrate gives every
  intra-stub link one delay, so a block is hop counts × delay: one
  bit-parallel BFS from all of a stub's routers at once
  (:func:`_uniform_apsp`), not a Dijkstra per router.
* :class:`APSPLatencyModel` — full all-pairs matrix for general graphs
  (Inet, BRITE).  Computed with chunked Dijkstra sweeps and stored as
  ``uint16`` milliseconds (link delays are integral, so the rounding is
  exact): 10 000 routers cost 200 MB.
* :class:`CoordinateLatencyModel` — Euclidean delays from plane
  coordinates; used by synthetic tests and micro-examples.

Million-router topologies don't fit either eager representation, so
each strategy has a **streaming** twin that answers bit-identical
queries from an LRU block cache filled on demand:
:class:`StreamingTransitStubLatencyModel` (the same per-stub blocks,
computed when first queried; border distances from one multi-source
Dijkstra) and :class:`StreamingAPSPLatencyModel` (uint16 Dijkstra row
blocks on demand).
:func:`latency_model_for` picks eager vs streaming from the projected
matrix footprint, so existing small configs keep byte-identical models.

:class:`NoisyLatencyModel` wraps any model with multiplicative
measurement noise, emulating the paper's observation (§2.2) that *ping*
is "not very accurate" yet adequate for the binning scheme.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.topology.base import LatencyModel, Topology
from repro.topology.transit_stub import TransitStubTopology
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = [
    "APSPLatencyModel",
    "StreamingAPSPLatencyModel",
    "TransitStubLatencyModel",
    "StreamingTransitStubLatencyModel",
    "CoordinateLatencyModel",
    "NoisyLatencyModel",
    "latency_model_for",
]


class APSPLatencyModel(LatencyModel):
    """All-pairs shortest-path delays stored as a ``uint16`` matrix.

    Parameters
    ----------
    topology:
        Source graph; link delays must be integral milliseconds (they
        are, for every generator in :mod:`repro.topology`) so that the
        ``uint16`` quantisation is exact.
    chunk:
        Number of Dijkstra source rows computed per sweep; bounds peak
        ``float64`` scratch memory at ``chunk * n_routers * 8`` bytes.
    """

    def __init__(self, topology: Topology, *, chunk: int = 1024) -> None:
        require(chunk >= 1, "chunk must be >= 1")
        n = topology.n_routers
        matrix = np.empty((n, n), dtype=np.uint16)
        csr = topology.csr()
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = dijkstra(csr, directed=False, indices=np.arange(start, stop))
            if np.isinf(block).any():
                raise ValueError("topology is disconnected; latency undefined")
            require(float(block.max()) < 65535, "path delay overflows uint16 ms")
            matrix[start:stop] = np.round(block).astype(np.uint16)
        self._matrix = matrix
        self.n_routers = n

    @property
    def matrix(self) -> np.ndarray:
        """The full ``(n, n)`` delay matrix in ms (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def pair(self, u: int, v: int) -> float:
        return float(self._matrix[u, v])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._matrix[np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)].astype(
            np.float64
        )

    def to_targets(self, source: int, targets: np.ndarray) -> np.ndarray:
        return self._matrix[source, np.asarray(targets, dtype=np.int64)].astype(np.float64)


class StreamingAPSPLatencyModel(LatencyModel):
    """APSP delays computed on demand in ``uint16`` row blocks.

    Query-compatible (bit-identical answers) with
    :class:`APSPLatencyModel` — the same chunked Dijkstra sweeps, the
    same overflow/disconnection checks, the same rounding — but only
    ``cache_blocks`` row blocks of ``chunk`` sources each are resident
    at a time, so general graphs far past the dense matrix's O(n²)
    memory wall stay queryable.  Peak memory is
    ``cache_blocks * chunk * n * 2`` bytes of cached rows plus one
    ``chunk × n`` float64 Dijkstra scratch.
    """

    def __init__(
        self, topology: Topology, *, chunk: int = 1024, cache_blocks: int = 64
    ) -> None:
        require(chunk >= 1, "chunk must be >= 1")
        require(cache_blocks >= 1, "cache_blocks must be >= 1")
        self.n_routers = topology.n_routers
        self.chunk = int(chunk)
        self.cache_blocks = int(cache_blocks)
        self.cache_hits = 0
        self.cache_misses = 0
        self._csr = topology.csr()
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def _rows(self, block: int) -> np.ndarray:
        cached = self._cache.get(block)
        if cached is not None:
            self._cache.move_to_end(block)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        start = block * self.chunk
        stop = min(start + self.chunk, self.n_routers)
        rows = dijkstra(self._csr, directed=False, indices=np.arange(start, stop))
        if np.isinf(rows).any():
            raise ValueError("topology is disconnected; latency undefined")
        require(float(rows.max()) < 65535, "path delay overflows uint16 ms")
        quantised = np.round(rows).astype(np.uint16)
        self._cache[block] = quantised
        if len(self._cache) > self.cache_blocks:
            self._cache.popitem(last=False)
        return quantised

    def pair(self, u: int, v: int) -> float:
        return float(self._rows(u // self.chunk)[u % self.chunk, v])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.empty(len(us), dtype=np.float64)
        blocks = us // self.chunk
        for block in np.unique(blocks):
            m = blocks == block
            rows = self._rows(int(block))
            out[m] = rows[us[m] % self.chunk, vs[m]]
        return out

    def to_targets(self, source: int, targets: np.ndarray) -> np.ndarray:
        rows = self._rows(source // self.chunk)
        return rows[source % self.chunk, np.asarray(targets, dtype=np.int64)].astype(
            np.float64
        )


def _uniform_apsp(sub: csr_matrix) -> np.ndarray:
    """All-pairs shortest delays of one stub's sub-graph (float64, ``inf`` = unreachable).

    Every stub the generator emits gives all its links one delay, so
    the delay between two routers is their hop count times that delay
    and one breadth-first search from all ``n`` routers at once fills
    the block: bit ``s`` of row ``v`` of ``visited`` says source ``s``
    has reached ``v`` (64 sources per word), a level ORs each router's
    neighbours' frontier rows, and a pair's hop count is the number of
    levels it stayed unvisited.  Delays are read from a running-sum
    table — the repeated addition Dijkstra performs — so the block
    equals ``dijkstra(sub, directed=False)`` bit for bit; a sub-graph
    with mixed delays (or no link at all) still goes through Dijkstra.
    """
    n = sub.shape[0]
    if sub.nnz == 0 or sub.data.min() != sub.data.max():
        return dijkstra(sub, directed=False)
    width = -(-n // 64) * 64
    visited = np.packbits(np.eye(n, width, dtype=bool), axis=1, bitorder="little").view("<u8")
    frontier = visited.copy()
    # ``reduceat`` gives a router without links the slot at its start
    # (and rejects a start past the end): clamp, then zero those rows.
    starts = np.minimum(sub.indptr[:-1], sub.nnz - 1)
    isolated = sub.indptr[:-1] == sub.indptr[1:]
    hops = np.zeros((n, n), dtype=np.uint16)
    levels = 0
    while frontier.any():
        unvisited = ~visited
        hops += np.unpackbits(unvisited.view(np.uint8), axis=1, count=n, bitorder="little")
        levels += 1
        frontier = np.bitwise_or.reduceat(frontier[sub.indices], starts, axis=0)
        frontier[isolated] = 0
        frontier &= unvisited
        visited |= frontier
    # A pair never reached was unvisited at all ``levels`` levels.
    reached = np.cumsum(np.full(levels - 1, sub.data[0]))
    return np.concatenate(([0.0], reached, [np.inf]))[hops]


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


def _stub_block(adj: csr_matrix, starts: np.ndarray, dom: int) -> np.ndarray:
    """Float32 APSP block of stub domain ``dom`` (see :func:`_stub_adjacency`)."""
    lo, hi = starts[dom], starts[dom + 1]
    block = _uniform_apsp(adj[lo:hi, lo:hi])
    if np.isinf(block).any():
        raise ValueError(f"stub domain {dom} is internally disconnected")
    return block.astype(np.float32)


class TransitStubLatencyModel(LatencyModel):
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

    ``tests/test_latency.py`` cross-checks this model against plain
    Dijkstra on every generated instance.
    """

    def __init__(self, topology: TransitStubTopology) -> None:
        require(
            isinstance(topology, TransitStubTopology),
            "TransitStubLatencyModel requires a TransitStubTopology",
        )
        self.topology = topology
        n = topology.n_routers
        n_transit = len(topology.transit_routers)
        params = topology.params

        # Core APSP on the transit-only subgraph (transit routers are
        # laid out first, so the submatrix slice is contiguous).
        core_csr = topology.csr()[:n_transit, :n_transit]
        core = dijkstra(core_csr, directed=False)
        if np.isinf(core).any():
            raise ValueError("transit core is disconnected")
        self._core = core

        # Per-stub APSP blocks over intra-stub links only.
        stub_size = params.stub_domain_size
        n_stubs = topology.n_stub_domains
        blocks = np.zeros((n_stubs, stub_size, stub_size), dtype=np.float32)
        stub_ids, starts, adj = _stub_adjacency(topology)
        for dom in range(n_stubs):
            blocks[dom] = _stub_block(adj, starts, dom)
        self._stub_blocks = blocks

        # Per-router precomputation for vectorised queries.
        dom_of = topology.stub_domain_of
        is_stub = dom_of >= 0
        border_local = topology.local_index[topology.border_router_of_domain]
        self._border_dist = np.zeros(n, dtype=np.float64)
        self._border_dist[stub_ids] = blocks[
            dom_of[stub_ids], topology.local_index[stub_ids], border_local[dom_of[stub_ids]]
        ]
        self._uplink = np.where(is_stub, params.stub_transit_delay, 0.0)
        self._gateway = np.arange(n, dtype=np.int64)
        self._gateway[stub_ids] = topology.gateway_of_domain[dom_of[stub_ids]]
        self._dom_of = dom_of
        self._local = topology.local_index

    def pair(self, u: int, v: int) -> float:
        return float(self.pairs(np.asarray([u]), np.asarray([v]))[0])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = (
            self._border_dist[us]
            + self._border_dist[vs]
            + self._uplink[us]
            + self._uplink[vs]
            + self._core[self._gateway[us], self._gateway[vs]]
        )
        same = (self._dom_of[us] == self._dom_of[vs]) & (self._dom_of[us] >= 0)
        if same.any():
            su, sv = us[same], vs[same]
            out[same] = self._stub_blocks[self._dom_of[su], self._local[su], self._local[sv]]
        return out


class StreamingTransitStubLatencyModel(LatencyModel):
    """Transit-stub latency with per-stub APSP blocks computed on demand.

    Query-compatible (bit-identical answers) with
    :class:`TransitStubLatencyModel`; the difference is purely where
    the per-stub blocks live.  The eager model precomputes all
    ``n_stubs × stub_size²`` float32 entries — at a million stub
    routers that's tens of GB — while this model keeps:

    * the tiny transit-core APSP (eager, same as before),
    * every router's distance to its stub's border router, obtained
      from **one** Dijkstra over the intra-stub edges started at all
      border routers together (O(E log V) total instead of one pass
      per stub), and
    * an LRU of at most ``cache_blocks`` stub blocks, each computed by
      the block function the eager model runs (so cached answers match
      bit for bit).

    Cross-stub queries never touch a block — the border distances and
    core matrix fully determine them — so only same-domain queries pay
    cache traffic.
    """

    def __init__(self, topology: TransitStubTopology, *, cache_blocks: int = 64) -> None:
        require(
            isinstance(topology, TransitStubTopology),
            "StreamingTransitStubLatencyModel requires a TransitStubTopology",
        )
        require(cache_blocks >= 1, "cache_blocks must be >= 1")
        self.topology = topology
        self.cache_blocks = int(cache_blocks)
        self.cache_hits = 0
        self.cache_misses = 0
        n = topology.n_routers
        n_transit = len(topology.transit_routers)
        dom_of, local = topology.stub_domain_of, topology.local_index

        core = dijkstra(topology.csr()[:n_transit, :n_transit], directed=False)
        if np.isinf(core).any():
            raise ValueError("transit core is disconnected")
        self._core = core

        # Border distances from ONE multi-source Dijkstra: ``adj`` holds
        # intra-stub links only, so distinct stubs stay disconnected and
        # the nearest border router is always the router's own.
        stub_ids, self._dom_starts, self._adj = _stub_adjacency(topology)
        borders = self._dom_starts[:-1] + local[topology.border_router_of_domain]
        to_border = dijkstra(self._adj, directed=False, indices=borders, min_only=True)
        if np.isinf(to_border).any():
            bad = stub_ids[np.isinf(to_border)][0]
            raise ValueError(f"stub domain {dom_of[bad]} is internally disconnected")
        self._border_dist = np.zeros(n, dtype=np.float64)
        # Route through float32 to mirror the eager model's block dtype.
        self._border_dist[stub_ids] = to_border.astype(np.float32).astype(np.float64)
        self._uplink = np.where(dom_of >= 0, topology.params.stub_transit_delay, 0.0)
        self._gateway = np.arange(n, dtype=np.int64)
        self._gateway[stub_ids] = topology.gateway_of_domain[dom_of[stub_ids]]
        self._dom_of = dom_of
        self._local = local
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def _block(self, dom: int) -> np.ndarray:
        cached = self._cache.get(dom)
        if cached is not None:
            self._cache.move_to_end(dom)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        quantised = _stub_block(self._adj, self._dom_starts, dom)
        self._cache[dom] = quantised
        if len(self._cache) > self.cache_blocks:
            self._cache.popitem(last=False)
        return quantised

    def pair(self, u: int, v: int) -> float:
        return float(self.pairs(np.asarray([u]), np.asarray([v]))[0])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = (
            self._border_dist[us]
            + self._border_dist[vs]
            + self._uplink[us]
            + self._uplink[vs]
            + self._core[self._gateway[us], self._gateway[vs]]
        )
        same = np.flatnonzero(
            (self._dom_of[us] == self._dom_of[vs]) & (self._dom_of[us] >= 0)
        )
        if same.size:
            doms = self._dom_of[us[same]]
            for dom in np.unique(doms):
                m = same[doms == dom]
                block = self._block(int(dom))
                out[m] = block[self._local[us[m]], self._local[vs[m]]]
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

    def pair(self, u: int, v: int) -> float:
        return float(self.pairs(np.asarray([u]), np.asarray([v]))[0])

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

    def pair(self, u: int, v: int) -> float:
        return float(self.pairs(np.asarray([u]), np.asarray([v]))[0])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        clean = self.inner.pairs(us, vs)
        if self.sigma == 0:
            return clean
        noise = self._rng.lognormal(mean=0.0, sigma=self.sigma, size=np.shape(clean))
        return clean * noise

    def to_targets(self, source: int, targets: np.ndarray) -> np.ndarray:
        clean = self.inner.to_targets(source, targets)
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
    graph, get the APSP matrix.  When the eager model's precomputed
    state would exceed ``streaming_threshold_bytes``, the bit-identical
    streaming twin is returned instead; every config in the repo's
    standard sweeps stays under the default 1 GiB threshold, so their
    models are byte-for-byte what they always were.

    A streaming model's LRU is sized so resident blocks stay under
    ``streaming_cache_bytes`` (default 4 GiB) — blocks are built on
    demand, only touched blocks are ever paid for, and the budget is
    the hard ceiling.  Workloads whose working set fits the budget
    (e.g. a million-router transit-stub instance: ~2.4 k blocks of
    ~1 MB) converge to each block computed exactly once; sizing the
    cache at a fixed small block count instead thrashes — a single
    65 536-lane routing chunk touches nearly every stub domain every
    hop, re-filling the same blocks thousands of times.
    """
    if isinstance(topology, TransitStubTopology) and not topology.params.has_shortcuts:
        # Neither twin takes a further keyword: a stray one is their TypeError.
        params = topology.params
        block_bytes = params.stub_domain_size**2 * 4
        blocks_bytes = topology.n_stub_domains * block_bytes
        if blocks_bytes > streaming_threshold_bytes:
            cache_blocks = max(64, streaming_cache_bytes // max(block_bytes, 1))
            return StreamingTransitStubLatencyModel(
                topology, cache_blocks=cache_blocks, **kwargs  # type: ignore[arg-type]
            )
        return TransitStubLatencyModel(topology, **kwargs)  # type: ignore[arg-type]
    if topology.n_routers**2 * 2 > streaming_threshold_bytes:
        chunk = int(kwargs.pop("chunk", 1024))  # type: ignore[call-overload]
        row_block_bytes = chunk * topology.n_routers * 2
        cache_blocks = max(4, streaming_cache_bytes // max(row_block_bytes, 1))
        return StreamingAPSPLatencyModel(
            topology, chunk=chunk, cache_blocks=cache_blocks, **kwargs  # type: ignore[arg-type]
        )
    return APSPLatencyModel(topology, **kwargs)  # type: ignore[arg-type]
