"""Router-level topology representation and the latency-model interface.

A :class:`Topology` is an undirected router graph with integer link
delays in milliseconds.  Everything downstream of topology generation
(binning, routing-latency accounting, landmark placement) only ever
talks to a :class:`LatencyModel`, so the expensive representation choice
(full APSP matrix vs. exact hierarchical decomposition vs. coordinates)
is swappable per topology family.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.util.validation import require

__all__ = ["Topology", "LatencyModel", "index_lanes", "ROUTER_STUB", "ROUTER_TRANSIT"]

#: Router kind flags stored in :attr:`Topology.kind`.
ROUTER_STUB = 0
ROUTER_TRANSIT = 1


@dataclass
class Topology:
    """An undirected router graph with millisecond link delays.

    Attributes
    ----------
    n_routers:
        Number of routers (vertices), ids ``0..n_routers-1``.
    edges:
        ``(E, 2)`` integer array of undirected edges (each listed once).
    delays:
        ``(E,)`` float array of link delays in milliseconds (positive).
    kind:
        ``(n_routers,)`` uint8 array of router kinds
        (:data:`ROUTER_STUB` / :data:`ROUTER_TRANSIT`).  Generators
        without a transit/stub distinction mark every router as stub.
    coords:
        Optional ``(n_routers, 2)`` plane coordinates (BRITE/Inet place
        routers in a plane; Transit-Stub leaves this ``None``).
    name:
        Human-readable generator tag (``"transit-stub"`` etc.).
    meta:
        Free-form generator-specific metadata.
    """

    n_routers: int
    edges: np.ndarray
    delays: np.ndarray
    kind: np.ndarray
    coords: np.ndarray | None = None
    name: str = "topology"
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.delays = np.asarray(self.delays, dtype=np.float64).reshape(-1)
        self.kind = np.asarray(self.kind, dtype=np.uint8).reshape(-1)
        require(self.n_routers >= 1, "topology needs at least one router")
        require(
            len(self.delays) == len(self.edges),
            f"edges ({len(self.edges)}) and delays ({len(self.delays)}) length mismatch",
        )
        require(len(self.kind) == self.n_routers, "kind array length mismatch")
        if len(self.edges):
            require(int(self.edges.max()) < self.n_routers, "edge endpoint out of range")
            require(int(self.edges.min()) >= 0, "edge endpoint out of range")
            require(float(self.delays.min()) > 0, "link delays must be positive")
        self._csr: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of undirected links."""
        return len(self.edges)

    @property
    def stub_routers(self) -> np.ndarray:
        """Ids of stub routers (overlay peers attach only to these)."""
        return np.flatnonzero(self.kind == ROUTER_STUB)

    @property
    def transit_routers(self) -> np.ndarray:
        """Ids of transit (core) routers."""
        return np.flatnonzero(self.kind == ROUTER_TRANSIT)

    def csr(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency with delay weights (cached)."""
        if self._csr is None:
            u, v = self.edges[:, 0], self.edges[:, 1]
            data = np.concatenate([self.delays, self.delays])
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            self._csr = sp.csr_matrix(
                (data, (rows, cols)), shape=(self.n_routers, self.n_routers)
            )
        return self._csr

    def is_connected(self) -> bool:
        """True iff the router graph is a single connected component."""
        n_comp, _ = connected_components(self.csr(), directed=False)
        return n_comp == 1

    def shortest_delays(self, sources: np.ndarray | list[int]) -> np.ndarray:
        """Shortest-path delays (ms) from ``sources`` to every router.

        Returns a ``(len(sources), n_routers)`` float64 matrix.  Used by
        latency models and by tests cross-checking the exact
        transit-stub decomposition against Dijkstra ground truth.
        """
        indices = np.asarray(sources, dtype=np.int64)
        return dijkstra(self.csr(), directed=False, indices=indices)

    def degree(self) -> np.ndarray:
        """Per-router degree vector."""
        deg = np.zeros(self.n_routers, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, routers={self.n_routers}, "
            f"links={self.n_edges})"
        )


def index_lanes(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``us`` and ``vs`` as ``int64`` vectors, or a :class:`ValueError`
    naming both shapes unless they are 1-D and equally long."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:  # message built on failure only: hot path
        raise ValueError(
            f"pairs needs two equal-length 1-D index vectors, got shapes {us.shape} and {vs.shape}"
        )
    return us, vs


class LatencyModel(ABC):
    """Answers pairwise delay queries between routers.

    Latencies are *end-to-end shortest-path* delays in milliseconds.
    Implementations must be symmetric (``pair(u, v) == pair(v, u)``) and
    satisfy ``pair(u, u) == 0``.
    """

    def pair(self, u: int, v: int) -> float:
        """Delay in ms between routers ``u`` and ``v``."""
        return float(self.pairs(np.asarray([u]), np.asarray([v]))[0])

    @abstractmethod
    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Element-wise delays for two equal-length 1-D index vectors.

        The graph-backed models reject any other shape
        (:func:`index_lanes`, a Python-level compare).  The ids are the
        caller's contract: a ``min()``/``max()`` range check is ≈3 µs of
        a ≈10 µs call on the routing hot path, so an id outside
        ``[0, n)`` is numpy's ``IndexError`` at best and, when negative,
        another router's answer.
        """

    def to_targets(self, source: int, targets: np.ndarray) -> np.ndarray:
        """Delays from one source router to a vector of targets.

        Default implementation delegates to :meth:`pairs`.
        """
        targets = np.asarray(targets, dtype=np.int64)
        return self.pairs(np.full(len(targets), source, dtype=np.int64), targets)
