"""The distributed binning scheme (paper §2.2, Table 1).

Nodes measure their latency to a well-known set of landmark machines,
quantise each measurement into a small number of *levels*, and the
resulting digit string — the **landmark order** — names the lower-layer
P2P ring the node joins.  Nodes with the same order land in the same
ring; because the order is a coarse latency fingerprint, ring mates are
topologically close.

Level rule
----------
The paper uses three levels: ``[0, 20] → 0``, ``(20, 100) → 1`` and
``[100, ∞) → 2`` (both Table 1 boundary cases appear in the paper:
node F's 20 ms maps to level 0 and node C's 100 ms maps to level 2, so
the bottom level is closed and the top level includes its boundary).
:func:`quantise_levels` generalises that rule to any ascending boundary
list: values ≤ the first boundary get level 0, values ≥ the last
boundary get the top level, interior values use half-open bins.

Hierarchy depth > 2
-------------------
The paper evaluates depths up to 4 but never specifies how deeper rings
form.  We use **nested boundary refinement** (DESIGN.md §5): each deeper
layer re-quantises with a strictly finer boundary set, and a ring's name
is the full refinement path (``"1012" → "1012/301524" → …``), so a
layer-(ℓ+1) ring is always a subset of its layer-ℓ parent — mirroring
"the lower the layer, the more topologically adjacent" (§2.1).

Scale
-----
Peer → landmark delays grow with the network, so absolute boundaries
put nearly every peer of a large network in one "far from everything"
ring.  A deployment bins with :data:`DEFAULT_LEVELS` × the median of
the landmarks' median pings (:func:`landmark_scale_ms`) ÷
:data:`REFERENCE_SCALE_MS`, never finer than the paper's own levels
(DESIGN.md §5); Table 1 keeps the paper's boundaries, as its inputs are
the paper's distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.validation import require

__all__ = [
    "quantise_levels", "landmark_scale_ms", "BinningScheme", "LandmarkOrders", "DEFAULT_LEVELS",
    "REFERENCE_SCALE_MS",
]

#: Default level boundaries per lower layer: entry 0 configures layer-2
#: rings (paper values), each subsequent entry refines the previous one
#: for layer 3, layer 4, …
DEFAULT_LEVELS: tuple[tuple[float, ...], ...] = (
    (20.0, 100.0),
    (10.0, 20.0, 50.0, 100.0, 200.0),
    (5.0, 10.0, 15.0, 20.0, 35.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0),
)

#: The landmark scale (ms) up to which :data:`DEFAULT_LEVELS` apply as
#: they stand: the paper's (20, 100) ms are 0.16 and 0.8 × this median.
REFERENCE_SCALE_MS = 125.0


def landmark_scale_ms(distances: np.ndarray) -> float:
    """A deployment's delay scale: the median, over landmarks, of the
    median delay each landmark measures to the ``(n_nodes, n_landmarks)``
    ``distances``.  A landmark median that is 0 or not finite raises."""
    distances = np.asarray(distances, dtype=np.float64)
    require(distances.ndim == 2 and distances.size >= 1, "distances must be (n_nodes, n_landmarks)")
    medians = np.median(distances, axis=0)
    require(
        bool(np.all(np.isfinite(medians) & (medians > 0))),
        f"every landmark's median delay must be finite and > 0, got {medians.tolist()}",
    )
    return float(np.median(medians))


def quantise_levels(distances: np.ndarray, boundaries: tuple[float, ...]) -> np.ndarray:
    """Quantise latency measurements into discrete levels.

    ``len(boundaries) + 1`` levels; the rule reproduces paper Table 1
    exactly (see module docstring for the boundary cases).

    Examples
    --------
    >>> quantise_levels(np.array([25.0, 5, 30, 100]), (20.0, 100.0)).tolist()
    [1, 0, 1, 2]
    >>> quantise_levels(np.array([20.0, 140, 50, 40]), (20.0, 100.0)).tolist()
    [0, 2, 1, 1]

    A negative or NaN distance raises :class:`ValueError` rather than
    landing in a plausible level; ``+inf`` is the top level.
    """
    distances = np.asarray(distances, dtype=np.float64)
    require(bool(np.all(distances >= 0.0)), "distances must be >= 0 (no NaN)")
    bounds = np.asarray(boundaries, dtype=np.float64)
    levels = np.digitize(distances, bounds, right=True)
    levels[distances >= bounds[-1]] = len(bounds)
    return levels.astype(np.int64)


def _digits(levels_row: np.ndarray) -> str:
    """Render one node's level vector as a ring-name digit string: the
    paper's ``"1012"`` while every level fits a digit, dot-separated
    otherwise (deep hierarchies can exceed 9 levels)."""
    separator = "" if levels_row.max(initial=0) <= 9 else "."
    return separator.join(str(int(v)) for v in levels_row)


def _distinct_rows(levels: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(levels, axis=0, return_inverse=True)`` for levels in
    ``[0, base)``, sorted on one packed integer key per row, the first
    landmark most significant (row-wise: ≈25× slower on 131 072 × 4).  A
    prefix about to overflow is re-ranked first: same order, fewer values.
    """
    key, span = np.zeros(len(levels), dtype=np.int64), 1
    for column in levels.T:
        if span * base > 2**62:
            prefixes, key = np.unique(key, return_inverse=True)
            span = len(prefixes)
        key, span = key * base + column, span * base
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    return levels[first], codes


@dataclass(frozen=True)
class BinningScheme:
    """Boundary configuration for every lower layer of a hierarchy.

    ``level_boundaries[k]`` configures layer ``k + 2`` (layer 1 is the
    global ring and is never binned).  Each boundary set must be an
    ascending, strict refinement (superset) of the previous one so that
    deeper rings nest.  With ``reference_ms`` unset the boundaries are
    absolute milliseconds (:meth:`paper_for_depth`); with it set,
    :meth:`orders` first multiplies them by the distances'
    :func:`landmark_scale_ms` ÷ ``reference_ms`` when that exceeds 1
    (:meth:`default_for_depth`).
    """

    level_boundaries: tuple[tuple[float, ...], ...] = field(default=(DEFAULT_LEVELS[0],))
    reference_ms: float | None = None

    def __post_init__(self) -> None:
        require(len(self.level_boundaries) >= 1, "need boundaries for at least layer 2")
        require(
            self.reference_ms is None or 0.0 < self.reference_ms < np.inf,
            f"reference_ms must be finite and > 0, got {self.reference_ms!r}",
        )
        prev: set[float] = set()
        for k, bounds in enumerate(self.level_boundaries):
            require(len(bounds) >= 1, f"layer {k + 2} needs at least one boundary")
            require(all(b > 0 for b in bounds), f"layer {k + 2} boundaries must be positive")
            ascending = list(bounds) == sorted(set(bounds))
            require(ascending, f"layer {k + 2} boundaries must be strictly ascending")
            require(
                prev.issubset(set(bounds)),
                f"layer {k + 2} boundaries must refine layer {k + 1}'s "
                f"({sorted(prev)} ⊄ {sorted(bounds)})",
            )
            prev = set(bounds)

    @classmethod
    def paper_for_depth(cls, depth: int) -> "BinningScheme":
        """The paper's absolute boundaries for a hierarchy depth (2–4)."""
        top = 1 + len(DEFAULT_LEVELS)
        require(2 <= depth <= top, f"depth must be in [2, {top}], got {depth}")
        return cls(DEFAULT_LEVELS[: depth - 1])

    @classmethod
    def default_for_depth(cls, depth: int) -> "BinningScheme":
        """The deployment rule for a depth (2–4): the paper's levels, widened to the landmarks' scale."""
        return replace(cls.paper_for_depth(depth), reference_ms=REFERENCE_SCALE_MS)

    def scaled(self, scale: float, reference: float = 1.0) -> "BinningScheme":
        """The absolute scheme with every boundary ``b`` at ``b * scale / reference`` (a factor
        finite and > 0): divided last, so it rounds once on integral delays, and a delay on a
        boundary stays there when every delay is multiplied by k (dividing first rounds twice)."""
        factor = scale / reference
        require(0.0 < factor < np.inf, f"factor must be finite and > 0, got {factor!r}")
        return BinningScheme(
            tuple(tuple(b * scale / reference for b in layer) for layer in self.level_boundaries)
        )

    def orders(self, distances: np.ndarray) -> "LandmarkOrders":
        """Compute every node's landmark order at every lower layer.

        ``distances`` are ``(n_nodes, n_landmarks)`` measured
        node→landmark delays (ms), e.g. from
        :meth:`repro.topology.attach.OverlayAttachment.landmark_distances`.
        The result's ``scheme`` is the absolute one the orders were binned
        with, so re-binning through it keeps this deployment's scale.
        """
        distances = np.asarray(distances, dtype=np.float64)
        require(distances.ndim == 2, "distances must be (n_nodes, n_landmarks)")
        require(distances.shape[1] >= 1, "need at least one landmark")
        if self.reference_ms is not None:
            scale, reference = landmark_scale_ms(distances), self.reference_ms
            absolute = self.scaled(scale, reference) if scale > reference else self.scaled(1.0)
            return absolute.orders(distances)
        # Render each *distinct* level row once (O(#rings) Python string
        # work, not O(n_nodes)) and keep the per-node assignment as int
        # codes into the layer's name pool, numbered in name order.
        pools: list[list[str]] = []
        codes_per_layer: list[np.ndarray] = []
        for k, boundaries in enumerate(self.level_boundaries):
            rows, codes = _distinct_rows(quantise_levels(distances, boundaries), len(boundaries) + 1)
            names = [_digits(row) for row in rows]
            if k:
                pairs, codes = np.unique(codes_per_layer[-1] * len(names) + codes, return_inverse=True)
                parents, digits = np.divmod(pairs, len(names))
                names = [f"{pools[-1][p]}/{names[d]}" for p, d in zip(parents.tolist(), digits.tolist())]
            order = sorted(range(len(names)), key=names.__getitem__)
            rank = np.empty(len(names), dtype=np.int64)
            rank[order] = np.arange(len(names))
            pools.append([names[i] for i in order])
            codes_per_layer.append(rank[codes.reshape(-1)])
        return LandmarkOrders(
            scheme=self, distances=distances, codes_per_layer=codes_per_layer, name_pools=pools
        )


@dataclass
class LandmarkOrders:
    """Per-node landmark orders for every lower layer of the hierarchy.

    ``codes_per_layer[k][i]`` indexes ``name_pools[k]``: node ``i``'s
    ring at layer ``k + 2``.  Each pool lists its layer's distinct ring
    names in name order, so code order is name order; deeper names embed
    their parent name, so rings nest by construction.  Per-node names
    are derived (:meth:`names`, :meth:`order_of`), never stored.
    """

    scheme: BinningScheme
    distances: np.ndarray
    codes_per_layer: list[np.ndarray]
    name_pools: list[list[str]]

    @property
    def n_nodes(self) -> int:
        """Number of binned nodes."""
        return self.distances.shape[0]

    @property
    def n_landmarks(self) -> int:
        """Number of landmarks used."""
        return self.distances.shape[1]

    @property
    def depth(self) -> int:
        """Hierarchy depth (layers including the global ring)."""
        return len(self.codes_per_layer) + 1

    def names(self, layer_index: int) -> np.ndarray:
        """Every node's ring name at one lower layer (an object array)."""
        pool = np.asarray(self.name_pools[layer_index], dtype=object)
        return pool[self.codes_per_layer[layer_index]]

    def order_of(self, node: int, layer_index: int = 0) -> str:
        """Ring name of ``node`` at one lower layer (default layer 2)."""
        return self.name_pools[layer_index][int(self.codes_per_layer[layer_index][node])]

    def drop_landmark(self, landmark: int) -> "LandmarkOrders":
        """Orders after a landmark failure (paper §2.3).

        Surviving nodes "drop the failed landmark from their order
        information": the failed column disappears from the distance
        matrix and all orders are recomputed from the survivors.
        """
        last = self.n_landmarks - 1
        require(0 <= landmark <= last, f"landmark {landmark} out of range 0..{last}")
        require(self.n_landmarks > 1, "cannot drop the last landmark")
        kept = np.delete(self.distances, landmark, axis=1)
        return self.scheme.orders(kept)

    def table1_rows(self, labels: list[str] | None = None) -> list[dict[str, object]]:
        """Rows in the paper's Table 1 layout (layer-2 orders).

        Each row carries the node label, its per-landmark distances and
        its layer-2 order string.
        """
        labels = labels or [str(i) for i in range(self.n_nodes)]
        rows = []
        for i in range(self.n_nodes):
            row: dict[str, object] = {"node": labels[i]}
            for j in range(self.n_landmarks):
                row[f"dist_l{j + 1}_ms"] = float(self.distances[i, j])
            row["order"] = self.order_of(i)
            rows.append(row)
        return rows
