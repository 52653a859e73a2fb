"""GT-ITM Transit-Stub internetwork generator (re-implementation).

The Transit-Stub (TS) model of Zegura, Calvert & Bhattacharjee (paper
reference [17]) builds an internetwork in three tiers:

1. A small number of **transit domains** (backbone ASes), each a
   connected random graph of transit routers; transit domains are
   themselves connected at the top level.
2. Each transit router hosts several **stub domains** (edge ASes).
3. Each stub domain is a connected random graph of stub routers,
   attached to its transit router through a single *border* router.

The paper's simulations (§4.1) assign link delays by tier: 100 ms for
intra-transit links, 20 ms for stub–transit links, 5 ms for intra-stub
links.  We use the same defaults (inter-transit-domain links are treated
as intra-transit, i.e. 100 ms — the paper does not distinguish them).

Keeping exactly one border link per stub domain makes shortest-path
delays decomposable (stub ``→`` border ``→`` core ``→`` border ``→``
stub), which :class:`repro.topology.latency.TransitStubLatencyModel`
exploits for exact O(1) queries without a quadratic APSP matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.topology.base import ROUTER_STUB, ROUTER_TRANSIT, Topology
from repro.util.rng import make_rng
from repro.util.validation import require, require_int, require_positive

__all__ = ["TransitStubParams", "TransitStubTopology", "generate_transit_stub"]


@dataclass(frozen=True)
class TransitStubParams:
    """Structural and delay parameters of the Transit-Stub generator.

    Router count is
    ``n_transit_domains * transit_nodes_per_domain * (1 + stubs_per_transit_node * stub_domain_size)``.
    """

    n_transit_domains: int = 2
    transit_nodes_per_domain: int = 4
    stubs_per_transit_node: int = 4
    stub_domain_size: int = 8
    #: Paper §4.1 delay classes (milliseconds).
    intra_transit_delay: float = 100.0
    stub_transit_delay: float = 20.0
    intra_stub_delay: float = 5.0
    #: Probability of each extra (non-spanning-tree) edge inside a
    #: transit domain / stub domain.  Higher values shrink domain
    #: diameter.
    transit_edge_prob: float = 0.5
    stub_edge_prob: float = 0.42
    def __post_init__(self) -> None:
        for name in ("n_transit_domains", "transit_nodes_per_domain",
                     "stubs_per_transit_node", "stub_domain_size"):
            require_int(getattr(self, name), 1, name=name)
        for name in ("intra_transit_delay", "stub_transit_delay", "intra_stub_delay"):
            require_positive(getattr(self, name), name=name)
        require(0.0 <= self.transit_edge_prob <= 1.0, "transit_edge_prob in [0,1]")
        require(0.0 <= self.stub_edge_prob <= 1.0, "stub_edge_prob in [0,1]")

    @property
    def n_transit_routers(self) -> int:
        """Total transit routers across all domains."""
        return self.n_transit_domains * self.transit_nodes_per_domain

    @property
    def n_stub_domains(self) -> int:
        """Total stub domains."""
        return self.n_transit_routers * self.stubs_per_transit_node

    @property
    def n_routers(self) -> int:
        """Total router count the parameters will produce."""
        return self.n_transit_routers + self.n_stub_domains * self.stub_domain_size

    @classmethod
    def for_size(cls, n_routers: int, **overrides: object) -> "TransitStubParams":
        """Pick parameters that approximate ``n_routers`` total routers.

        Mirrors how the paper sized its emulated networks: a small
        transit tier that grows in steps with network size while stub
        domains absorb the remainder.  (The paper's own §4.2 notes that
        differing transit/stub configurations between the 6000- and
        7000-node networks produce a small latency non-monotonicity — an
        artifact this stepwise sizing reproduces.)  Stub domains are
        kept sparse (bounded expected extra degree) so intra-stub
        distances stay in the low tens of milliseconds and the paper's
        binning levels ``[0,20] / (20,100) / [100,∞)`` all occur.

        From 100 000 routers on, the transit tier grows with the network
        instead: 8 transit routers per domain by default, and as many
        domains (at least 4) as keep stub domains near 512 routers, so a
        per-stub hop-count block stays ≈0.13 MB (``512·513/2`` bytes) — the
        unit the latency model fills on first use.  At 1.25 M
        routers that is 38 domains × 8 routers and 2 432 stubs of 514.
        Only the defaults change with the regime; every override is
        honoured in both.
        """
        require(n_routers >= 16, f"transit-stub networks need >= 16 routers, got {n_routers}")
        large = n_routers >= 100_000
        per_domain = int(overrides.pop("transit_nodes_per_domain", 8 if large else 2))
        stubs_per = int(overrides.pop("stubs_per_transit_node", 8))
        if large:
            default_domains = max(4, round(n_routers / (per_domain * (1 + stubs_per * 512))))
        elif n_routers < 3000:
            default_domains = 2
        elif n_routers < 7000:
            default_domains = 3
        else:
            default_domains = 4
        n_domains = int(overrides.pop("n_transit_domains", default_domains))
        n_transit = n_domains * per_domain
        stub_size = max(2, round((n_routers / n_transit - 1) / stubs_per))
        stub_size = int(overrides.pop("stub_domain_size", stub_size))
        # Sparse stubs: ~1.5 extra edges per router keeps stub diameters
        # large enough that intra-stub distances (multiples of 5 ms)
        # spread across the deeper binning boundaries, so hierarchy
        # depths beyond 2 still find structure to exploit (§4.5).
        stub_edge_prob = float(
            overrides.pop("stub_edge_prob", min(0.5, 1.5 / max(stub_size, 1)))
        )
        return cls(
            n_transit_domains=n_domains,
            transit_nodes_per_domain=per_domain,
            stubs_per_transit_node=stubs_per,
            stub_domain_size=stub_size,
            stub_edge_prob=stub_edge_prob,
            **overrides,  # type: ignore[arg-type]
        )


@dataclass
class TransitStubTopology(Topology):
    """A :class:`Topology` annotated with its transit-stub structure.

    Extra attributes
    ----------------
    stub_domain_of:
        ``(n_routers,)`` int32; stub-domain id of each router, ``-1``
        for transit routers.
    border_router_of_domain:
        ``(n_stub_domains,)`` router id of each stub domain's border
        router (the one holding the 20 ms uplink).
    gateway_of_domain:
        ``(n_stub_domains,)`` transit-router id each stub attaches to.
    local_index:
        ``(n_routers,)`` position of each router inside its own stub
        domain (0 for transit routers); used to index per-domain APSP
        blocks.
    """

    stub_domain_of: np.ndarray = field(kw_only=True, default=None)  # type: ignore[assignment]
    border_router_of_domain: np.ndarray = field(kw_only=True, default=None)  # type: ignore[assignment]
    gateway_of_domain: np.ndarray = field(kw_only=True, default=None)  # type: ignore[assignment]
    local_index: np.ndarray = field(kw_only=True, default=None)  # type: ignore[assignment]
    params: TransitStubParams = field(kw_only=True, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        require(self.stub_domain_of is not None, "stub_domain_of is required")
        self.stub_domain_of = np.asarray(self.stub_domain_of, dtype=np.int32)
        self.border_router_of_domain = np.asarray(self.border_router_of_domain, dtype=np.int64)
        self.gateway_of_domain = np.asarray(self.gateway_of_domain, dtype=np.int64)
        self.local_index = np.asarray(self.local_index, dtype=np.int64)

    @property
    def n_stub_domains(self) -> int:
        """Number of stub domains."""
        return len(self.border_router_of_domain)


def _connected_random_graph(
    n: int, extra_edge_prob: float, rng: np.random.Generator, upper: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``(E, 2)`` edges of a connected random graph on ``0..n-1``.

    A random recursive tree guarantees connectivity; every other pair is
    added independently with probability ``extra_edge_prob``.  Local ids.
    ``upper`` is ``np.triu_indices(n, k=1)``, which the caller computes
    once for all graphs of one size.
    """
    if n == 1:
        return np.empty((0, 2), dtype=np.int64)
    order = rng.permutation(n)
    # ``integers(0, i)`` for i = 1 … n - 1 in one call: the scalar loop's draws.
    parents = rng.integers(0, np.arange(1, n))
    edges = np.column_stack([order[1:], order[parents]]).astype(np.int64)
    if extra_edge_prob > 0.0 and n > 2:
        iu, ju = upper
        mask = rng.random(len(iu)) < extra_edge_prob
        iu, ju = iu[mask], ju[mask]
        # Drop extras that repeat a tree link, compared as lo * n + hi.
        new = ~np.isin(iu * n + ju, edges.min(axis=1) * n + edges.max(axis=1))
        edges = np.concatenate([edges, np.column_stack([iu[new], ju[new]])])
    return edges


def generate_transit_stub(
    params: TransitStubParams | None = None,
    *,
    seed: int | np.random.Generator = 0,
) -> TransitStubTopology:
    """Generate a Transit-Stub internetwork.

    Router ids are laid out transit-first: routers
    ``0 .. n_transit_routers-1`` are the core (grouped by domain), then
    each stub domain occupies a contiguous block.

    Examples
    --------
    >>> topo = generate_transit_stub(TransitStubParams(), seed=1)
    >>> topo.is_connected()
    True
    """
    params = params or TransitStubParams()
    rng = make_rng(seed)

    edges: list[np.ndarray] = []
    delays: list[np.ndarray] = []

    def link(pairs: np.ndarray | tuple[int, int], delay: float) -> None:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        edges.append(pairs)
        delays.append(np.full(len(pairs), delay))

    n_transit = params.n_transit_routers
    n_domains = params.n_transit_domains
    per_domain = params.transit_nodes_per_domain

    # --- transit core -------------------------------------------------
    upper = np.triu_indices(per_domain, k=1)
    for d in range(n_domains):
        graph = _connected_random_graph(per_domain, params.transit_edge_prob, rng, upper)
        link(d * per_domain + graph, params.intra_transit_delay)
    # Connect transit domains with a random tree over domains; the
    # endpoints of each inter-domain link are random routers of the two
    # domains (GT-ITM's top-level connectivity, delay class = transit).
    for d in range(1, n_domains):
        other = int(rng.integers(0, d))
        u = d * per_domain + int(rng.integers(0, per_domain))
        v = other * per_domain + int(rng.integers(0, per_domain))
        link((u, v), params.intra_transit_delay)

    # --- stub domains ---------------------------------------------------
    n_stubs = params.n_stub_domains
    stub_size = params.stub_domain_size
    n_routers = params.n_routers
    stub_domain_of = np.full(n_routers, -1, dtype=np.int32)
    local_index = np.zeros(n_routers, dtype=np.int64)
    border_router_of_domain = np.zeros(n_stubs, dtype=np.int64)
    gateway_of_domain = np.zeros(n_stubs, dtype=np.int64)

    upper = np.triu_indices(stub_size, k=1)
    domain_id = 0
    next_router = n_transit
    for transit_router in range(n_transit):
        for _ in range(params.stubs_per_transit_node):
            base = next_router
            next_router += stub_size
            stub_domain_of[base : base + stub_size] = domain_id
            local_index[base : base + stub_size] = np.arange(stub_size)
            graph = _connected_random_graph(stub_size, params.stub_edge_prob, rng, upper)
            link(base + graph, params.intra_stub_delay)
            border_local = int(rng.integers(0, stub_size))
            border = base + border_local
            link((border, transit_router), params.stub_transit_delay)
            border_router_of_domain[domain_id] = border
            gateway_of_domain[domain_id] = transit_router
            domain_id += 1

    kind = np.full(n_routers, ROUTER_STUB, dtype=np.uint8)
    kind[:n_transit] = ROUTER_TRANSIT

    topo = TransitStubTopology(
        n_routers=n_routers,
        edges=np.concatenate(edges),
        delays=np.concatenate(delays),
        kind=kind,
        name="transit-stub",
        meta={
            "n_transit_domains": n_domains,
            "transit_nodes_per_domain": per_domain,
            "stubs_per_transit_node": params.stubs_per_transit_node,
            "stub_domain_size": stub_size,
        },
        stub_domain_of=stub_domain_of,
        border_router_of_domain=border_router_of_domain,
        gateway_of_domain=gateway_of_domain,
        local_index=local_index,
        params=params,
    )
    return topo
