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
  delay.  The core APSP and the border distances are hop counts read
  the same way (every core link carries one delay too), so the model
  builds and fills from numpy alone; scipy's Dijkstra, imported at the
  call, is left for links of mixed delay.  This is what makes
  paper-scale simulation (10 000 routers, 100 000 requests × ~13 hops)
  cheap and a million routers fit.
* :class:`APSPLatencyModel` — all-pairs matrix for general graphs
  (Inet, BRITE), in row blocks of chunked Dijkstra sweeps stored as
  ``uint16`` milliseconds (link delays are integral, so the rounding is
  exact): 10 000 routers cost 200 MB.
* :class:`CoordinateLatencyModel` — Euclidean delays from plane
  coordinates; used by synthetic tests and micro-examples.

Both block models are a :class:`_BlockModel`: a pool of one row per
block, each filled once, on the first call that names it.  "Eager" is
the same object with every block filled at construction
(:func:`latency_model_for` decides): the choice changes time and
memory, never an answer.

:class:`NoisyLatencyModel` wraps any model with multiplicative
measurement noise, emulating the paper's observation (§2.2) that *ping*
is "not very accurate" yet adequate for the binning scheme.
"""

from __future__ import annotations

import numpy as np

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
    """A model answering from equal-shaped blocks, each filled once.

    ``_pool[b]`` is block ``b`` once ``_filled[b]``.  The pool comes from
    ``np.zeros``, so a block costs no resident memory until :meth:`_fill`
    writes it, and residency lives in ``_filled`` alone — never in a
    sentinel written through the pool.  Nothing is evicted: a footprint
    within ``eager_bytes`` (default: any) is filled whole at
    construction, any other block by the first call that names it
    (:meth:`_warm`).  The graph the blocks are filled from is held
    beside the pool as the arrays of a scipy CSR (``_indptr``,
    ``_indices``, ``_data``).
    """

    def _init_pool(self, n_blocks: int, shape: tuple[int, ...], dtype: type, eager_bytes: int | None) -> None:
        self._pool = np.zeros((n_blocks, *shape), dtype=dtype)
        self._filled = np.zeros(n_blocks, dtype=bool)
        #: Blocks filled (construction included) / lanes answered from a
        #: block that was already filled.
        self.cache_misses = self.cache_hits = 0
        if eager_bytes is None or self._pool.nbytes <= eager_bytes:
            self._warm(np.arange(n_blocks))

    def _fill(self, block: int, out: np.ndarray) -> None:
        """Compute block ``block`` into its pool row ``out``."""
        raise NotImplementedError

    def _warm(self, blocks: np.ndarray) -> None:
        """Fill the cold blocks among the lanes' ``blocks``; the lanes whose
        block was filled before the call count as hits."""
        cold = blocks[~self._filled[blocks]] if self.cache_misses < len(self._filled) else blocks[:0]
        if cold.size:
            for block in np.unique(cold).tolist():
                self._fill(block, self._pool[block])
                self._filled[block] = True
                self.cache_misses += 1
        self.cache_hits += blocks.size - cold.size

    @property
    def resident_bytes(self) -> int:
        """Bytes held, by arithmetic: every array attribute, the graph's
        included, the pool counted by its *filled* blocks only."""
        held = sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))
        return held - self._pool.nbytes + self.cache_misses * self._pool[0].nbytes

    def stats(self) -> dict[str, int]:
        """What the model holds and what its pool did — seed-deterministic."""
        keys = ("resident_bytes", "cache_misses", "cache_hits")
        return {key: getattr(self, key) for key in keys}


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
    eager_bytes:
        See :class:`_BlockModel`; the default fills the whole matrix.  A
        lazy model fills only the row blocks its queries name, and meets
        a disconnected graph at its first fill.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        chunk: int = 1024,
        eager_bytes: int | None = None,
    ) -> None:
        require(chunk >= 1, "chunk must be >= 1")
        n = self.n_routers = topology.n_routers
        self.chunk = min(int(chunk), n)
        graph = topology.csr()
        self._indptr, self._indices, self._data = graph.indptr, graph.indices, graph.data
        self._init_pool(-(-n // self.chunk), (self.chunk, n), np.uint16, eager_bytes)

    def _fill(self, block: int, out: np.ndarray) -> None:
        start = block * self.chunk
        stop = min(start + self.chunk, self.n_routers)
        rows = _dijkstra(self._indptr, self._indices, self._data, indices=np.arange(start, stop))
        if np.isinf(rows).any():
            raise ValueError("topology is disconnected; latency undefined")
        require(float(rows.max()) < 65535, "path delay overflows uint16 ms")
        out[: stop - start] = np.round(rows)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us, vs = index_lanes(us, vs)
        block, row = np.divmod(us, self.chunk)
        self._warm(block)
        return self._pool[block, row, vs].astype(np.float64)


#: Most hops a ``uint8`` block entry can count: the search below runs one
#: level past the deepest pair, and a 256th level would wrap.
_MAX_HOPS = 254


def _dijkstra(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, /, **kwargs: object) -> np.ndarray:
    """scipy's undirected Dijkstra over CSR arrays, for a graph whose
    links do not all carry one delay — scipy is imported here, at the call."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = len(indptr) - 1
    return dijkstra(csr_matrix((data, indices, indptr), shape=(n, n)), directed=False, **kwargs)


def _csr(
    u: np.ndarray, v: np.ndarray, delays: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the undirected links ``u``–``v`` on
    ``n`` vertices as ``scipy.sparse.csr_matrix`` holds them: both
    directions, columns ascending within a row, a link listed twice
    summed into one entry, ``int32`` indices and ``float64`` data."""
    key = np.concatenate([u, v]) * n + np.concatenate([v, u])
    order = np.argsort(key, kind="stable")
    key, data = key[order], np.concatenate([delays, delays])[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, data = key[first], np.add.reduceat(data, first) if first.size else data
    indptr = np.searchsorted(key, np.arange(n + 1) * n)  # row r starts at its first key >= r * n
    return indptr.astype(np.int32), (key % n).astype(np.int32), data


def _bfs_hops(indptr: np.ndarray, indices: np.ndarray, hops: np.ndarray) -> int:
    """All-pairs hop counts of a CSR graph into ``hops`` (n × n, unsigned).

    One breadth-first search from all ``n`` routers at once: bit ``s``
    of row ``v`` of ``visited`` says source ``s`` has reached ``v`` (64
    sources per word), a level ORs each router's neighbours' frontier
    rows, and every level adds 1 to each pair still unvisited — so a
    pair's count ends as its hop distance, accumulated straight into the
    caller's bytes.  Link weights are not read, and a level the dtype
    could not count is refused (``_MAX_HOPS`` for ``uint8``).  Returns
    the number of levels run, which is also what a pair *never* reached
    ends on (one more than the largest finite count).
    """
    n, nnz = len(indptr) - 1, len(indices)
    limit = np.iinfo(hops.dtype).max - 1
    if nnz == 0:
        hops[...] = ~np.eye(n, dtype=bool)
        return 1
    width = -(-n // 64) * 64
    visited = np.packbits(np.eye(n, width, dtype=bool), axis=1, bitorder="little").view("<u8")
    frontier = visited.copy()
    # ``reduceat`` gives a router without links the slot at its start
    # (and rejects a start past the end): clamp, then zero those rows.
    starts = np.minimum(indptr[:-1], nnz - 1)
    isolated = indptr[:-1] == indptr[1:]
    hops[...] = 0
    levels = 0
    while frontier.any():
        require(levels <= limit, f"sub-graph is more than {limit} hops deep")
        unvisited = ~visited
        hops += np.unpackbits(unvisited.view(np.uint8), axis=1, count=n, bitorder="little")
        levels += 1
        frontier = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        frontier[isolated] = 0
        frontier &= unvisited
        visited |= frontier
    return levels


def _nearest_hops(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hops from the nearest of ``sources`` to every vertex of a CSR
    graph, ``-1`` where none reaches: one breadth-first search from all
    sources at once, each level gathering the frontier's neighbour lists
    in one piece and keeping the vertices not reached before."""
    depth = np.full(len(indptr) - 1, -1, dtype=np.int64)
    frontier, level = np.unique(sources), 0
    while frontier.size:
        depth[frontier] = level
        level += 1
        lo, count = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        # Entry ``j`` of the gather is ``indices[lo[g] + j - (entries before g)]``.
        reached = indices[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
        frontier = np.unique(reached[depth[reached] < 0])
    return depth


def _running_sums(delay: float, count: int) -> np.ndarray:
    """``float64`` delay of 0 … ``count - 1`` hops over links of one
    ``delay``, then ``inf``: what a pair never reached reads (a count of
    ``count``, or ``-1``).

    A running sum — the repeated addition Dijkstra performs along a
    path — **not** ``hops * delay``: the two differ in the last bit for
    a delay like 0.1, and a table promises Dijkstra's answer.
    """
    return np.concatenate(([0.0], np.cumsum(np.full(count - 1, delay)), [np.inf]))


def _hop_ms(delay: float) -> np.ndarray:
    """``float32`` delay of 0 … ``_MAX_HOPS`` hops over links of one ``delay``."""
    return _running_sums(delay, _MAX_HOPS + 1)[:-1].astype(np.float32)


def _one_delay(links: np.ndarray, delay: float) -> bool:
    """Whether every link (if any) carries ``delay``."""
    return links.size == 0 or links.min() == links.max() == delay


def _shortest(graph: tuple[np.ndarray, ...], delay: float, sources: np.ndarray | None = None) -> np.ndarray:
    """Dijkstra's ``float64`` answer over CSR ``(indptr, indices, data)``:
    all pairs, or from the nearest of ``sources``.  Hop counts
    (:func:`_bfs_hops`, :func:`_nearest_hops`) through the running sum
    when every link carries ``delay``, scipy's Dijkstra otherwise."""
    if not _one_delay(graph[2], delay):
        return _dijkstra(*graph) if sources is None else _dijkstra(*graph, indices=sources, min_only=True)
    if sources is None:
        hops = np.empty((len(graph[0]) - 1,) * 2, dtype=np.uint16)
        return _running_sums(delay, _bfs_hops(graph[0], graph[1], hops))[hops]
    depth = _nearest_hops(graph[0], graph[1], sources)
    return _running_sums(delay, int(depth.max()) + 1)[depth]


def _stub_adjacency(
    topology: TransitStubTopology,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intra-stub links regrouped by domain: ``(members, starts, indptr, indices, data)``.

    ``members`` lists the stub routers domain by domain, ascending
    router id within a domain (the ``local_index`` order); domain ``d``
    is ``members[starts[d]:starts[d + 1]]``, and the :func:`_csr` over
    those positions holds same-domain links only, built from
    ``topology.edges`` (no whole-graph CSR), so a stub's rows link only
    among themselves.
    """
    dom_of = topology.stub_domain_of
    stub_ids = np.flatnonzero(dom_of >= 0)
    # ``stub_ids`` ascends, so a stable sort keeps ids ascending per domain.
    members = stub_ids[np.argsort(dom_of[stub_ids], kind="stable")]
    starts = np.searchsorted(dom_of[members], np.arange(topology.n_stub_domains + 1))
    position = np.zeros(topology.n_routers, dtype=np.int64)
    position[members] = np.arange(len(members))
    u, v = topology.edges.T
    keep = (dom_of[u] >= 0) & (dom_of[u] == dom_of[v])
    links = _csr(position[u[keep]], position[v[keep]], topology.delays[keep], len(members))
    return members, starts, *links


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
    ``border distance + uplink`` (border distances from **one** search
    over the intra-stub links started at all border routers together).
    Same-domain lanes read per-stub blocks, pooled as in
    :class:`_BlockModel` (by default all filled at construction).  A
    stub's distances are symmetric, so a block is the packed upper
    triangle of the ``size × size`` square, diagonal included, row-major:
    ``size * (size + 1) // 2`` entries, and the pair ``(lu, lv)`` reads
    entry ``_row_start[min(lu, lv)] + max(lu, lv)``.

    On links of one delay Dijkstra's answer is a running sum read at
    hop counts (:func:`_shortest`), true of the core (all
    ``params.intra_transit_delay``) and the stubs (all
    ``params.intra_stub_delay``) of every generated topology.  Blocks
    are ``uint8`` hop counts read through :func:`_hop_ms` where the data
    allow it: the stub links carry that one delay and no router is more
    than 127 hops from its border, so no stub is more than ``_MAX_HOPS``
    across.  Anything else (a hand-built stub with mixed delays,
    duplicate links summed, a delay off the table, a 300-router path)
    takes scipy's Dijkstra there, with ``float32`` millisecond blocks:
    four times the bytes behind the same queries — decided from the
    data, no flag.

    ``tests/test_latency.py`` cross-checks this model against plain
    Dijkstra on every generated instance, ``test_latency_budgets.py`` too.
    """

    def __init__(
        self,
        topology: TransitStubTopology,
        *,
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
        # laid out first, so their ids are their positions).
        u, v = topology.edges.T
        transit = (u < n_transit) & (v < n_transit)
        core = _csr(u[transit], v[transit], topology.delays[transit], n_transit)
        core = _shortest(core, params.intra_transit_delay)
        if np.isinf(core).any():
            raise ValueError("transit core is disconnected")

        # The CSR holds intra-stub links only, so distinct stubs stay
        # disconnected and the nearest border router is the router's own.
        stub_ids, self._starts, *graph = _stub_adjacency(topology)
        self._indptr, self._indices, self._data = graph
        borders = self._starts[:-1] + topology.local_index[topology.border_router_of_domain]
        to_border = _shortest(graph, params.intra_stub_delay, borders)
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
        #: What :meth:`_priced` reads per lane, indexed by router.
        self._by_router = (self._edge, self._gw_u, self._gw_v, self._dom_u, self._dom_v, self._local)

        ms = _hop_ms(params.intra_stub_delay)
        uniform = _one_delay(self._data, params.intra_stub_delay)
        #: Hop → ms table; ``None`` when the blocks hold float32 ms themselves.
        self._ms = ms if uniform and near.max() <= ms[_MAX_HOPS // 2] else None
        size = params.stub_domain_size
        dtype = np.float32 if self._ms is None else np.uint8
        # Row ``i`` of the triangle holds columns ``i …`` and starts at
        # entry ``_row_start[i] + i``.
        rows = np.arange(size, dtype=np.int64)
        self._row_start = rows * size - rows * (rows + 1) // 2
        packed = (size * (size + 1) // 2,)
        self._init_pool(topology.n_stub_domains, packed, dtype, eager_bytes)

    def _stub_graph(self, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stub ``block``'s sub-graph as CSR arrays over its local indices:
        its rows of the regrouped CSR, renumbered from 0."""
        lo, hi = self._starts[block], self._starts[block + 1]
        first, last = self._indptr[lo], self._indptr[hi]
        return self._indptr[lo : hi + 1] - first, self._indices[first:last] - lo, self._data[first:last]

    def _fill(self, block: int, out: np.ndarray) -> None:
        indptr, indices, data = self._stub_graph(block)
        m, size = len(indptr) - 1, len(self._row_start)
        square = np.zeros((size, size), dtype=out.dtype)
        if self._ms is None:
            square[:m, :m] = _dijkstra(indptr, indices, data)
        else:
            _bfs_hops(indptr, indices, square[:m, :m])
        out[:] = square[~np.tri(size, k=-1, dtype=bool)]

    def _block_ms(self, block: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        entries = self._pool[block, self._row_start[np.minimum(lu, lv)] + np.maximum(lu, lv)]
        return entries if self._ms is None else self._ms[entries]

    def pair(self, u: int, v: int) -> float:
        if self._dom_u[u] == self._dom_v[v]:
            return super().pair(u, v)
        return float(self._edge[u] + self._edge[v] + self._core[self._gw_u[u] + self._gw_v[v]])

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._priced(self._by_router, *index_lanes(us, vs))

    def peer_tables(self, router_of_peer: np.ndarray) -> tuple[np.ndarray, ...]:
        """``_by_router`` gathered at each peer's router, integers as
        ``int32`` (28 bytes a peer): :meth:`_priced` over these takes peer
        ids and reads no ``router_of_peer``."""
        require(len(self._core) <= np.iinfo(np.int32).max, "core APSP too large for int32 offsets")
        return tuple(
            t[router_of_peer].astype(np.int32 if t.dtype.kind == "i" else t.dtype, copy=False)
            for t in self._by_router
        )

    def _priced(self, tables: tuple[np.ndarray, ...], us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Delays of lanes ``us``–``vs`` indexed like ``tables``: router ids
        with ``_by_router``, peer ids with :meth:`peer_tables`.  Same-stub
        lanes go through the one pool either way."""
        edge, gw_u, gw_v, dom_u, dom_v, local = tables
        dom = dom_u[us]
        out = edge[us] + edge[vs]
        hop = gw_u[us]
        hop += gw_v[vs]
        out += self._core[hop]
        same = (dom == dom_v[vs]).nonzero()[0]
        if same.size:
            dom = dom[same]
            self._warm(dom)
            out[same] = self._block_ms(dom, local[us[same]], local[vs[same]])
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
    **kwargs: object,
) -> LatencyModel:
    """Pick the best latency model for a topology.

    Transit-stub instances get the exact hierarchical model, every
    general graph the APSP row blocks.  ``streaming_threshold_bytes`` is
    the model's ``eager_bytes``: blocks are filled at construction while
    they total at most that (every standard sweep, by far), otherwise
    each on first use — same answers either way.  A million-router
    transit-stub instance is ~2 k blocks of 0.13 MB.
    """
    model = TransitStubLatencyModel if isinstance(topology, TransitStubTopology) else APSPLatencyModel
    # A keyword the chosen model does not take is its TypeError.
    return model(topology, eager_bytes=streaming_threshold_bytes, **kwargs)
