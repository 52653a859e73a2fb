"""Batched route results: array-of-structs counterpart of ``RouteResult``.

A :class:`BatchRouteResult` stores one lane per lookup: owners, hop
counts, per-layer hop counts, total latencies, the per-hop latency
values (needed for the exact low-layer latency split, and what the
metrics layer folds a traced batch from) and — optionally —
materialized paths, for callers and for sinks that keep spans.

Float contract: ``latency_ms[i]`` is produced by summing lane ``i``'s
contiguous per-hop row with ``np.sum`` — the same pairwise summation,
over the same values in the same order, as the scalar
``route_latency``'s ``pairs(...).sum()`` — so equality with the scalar
engine is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.util.validation import require

__all__ = ["BatchRouteResult", "row_prefix_sums"]


def row_prefix_sums(
    values: npt.NDArray[np.float64], lengths: npt.NDArray[np.int64]
) -> npt.NDArray[np.float64]:
    """Per-row sums of the first ``lengths[i]`` entries of row ``i``.

    Rows are grouped by prefix length so each group reduces with one
    ``np.sum(..., axis=1)`` call over a C-contiguous block — numpy's
    pairwise summation over a contiguous row is a pure function of the
    row's values and length, so each lane's sum is bit-identical to
    ``values[i, :h].sum()`` and therefore to the scalar engine's
    ``pairs(...).sum()`` over the same hops.
    """
    out = np.zeros(len(lengths), dtype=np.float64)
    for h in np.unique(lengths):
        hops = int(h)
        if hops <= 0:
            continue
        lanes = np.flatnonzero(lengths == h)
        out[lanes] = np.sum(values[lanes, :hops], axis=1)
    return out


@dataclass
class BatchRouteResult:
    """Vectorised outcome of routing a batch of lookups.

    Attributes
    ----------
    sources / keys:
        The request lanes (keys already wrapped into the id space).
    owner:
        Peer index owning each key — identical to the scalar engine's
        ``RouteResult.owner``.
    hops:
        Message forwards per lane (``len(path) - 1`` in scalar terms).
    latency_ms:
        Total link delay per lane, exact-float-equal to the scalar
        ``RouteResult.latency_ms``.
    hops_per_layer:
        ``(lanes, n_layers)`` hop counts ordered lowest layer first,
        matching ``RouteResult.hops_per_layer``; flat stacks have one
        column.
    hop_latency_ms:
        ``(lanes, capacity)`` per-hop link delays in hop order (rows
        zero-padded past ``hops[i]``); the raw material for the exact
        low-layer latency split.
    paths:
        ``(lanes, capacity + 1)`` visited peers (``-1``-padded), only
        when the batch was routed with ``paths=True``.
    """

    sources: npt.NDArray[np.int64]
    keys: npt.NDArray[np.uint64]
    owner: npt.NDArray[np.int64]
    hops: npt.NDArray[np.int64]
    latency_ms: npt.NDArray[np.float64]
    hops_per_layer: npt.NDArray[np.int64]
    hop_latency_ms: npt.NDArray[np.float64]
    paths: npt.NDArray[np.int64] | None = None

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def n_layers(self) -> int:
        """Number of routing layers (1 for flat stacks)."""
        return int(self.hops_per_layer.shape[1])

    @property
    def low_layer_hops(self) -> npt.NDArray[np.int64]:
        """Hops taken below the global ring (zeros for flat stacks)."""
        return self.hops_per_layer[:, :-1].sum(axis=1)

    @property
    def top_layer_hops(self) -> npt.NDArray[np.int64]:
        """Hops taken in the global (highest) ring."""
        return np.ascontiguousarray(self.hops_per_layer[:, -1])

    def low_layer_latency_ms(self) -> npt.NDArray[np.float64]:
        """Latency accumulated on hops below the global ring (exact).

        Lower-layer hops always precede global-ring hops in the path,
        so this is a per-lane prefix sum of the per-hop latency rows —
        the same values, order and summation as the scalar split in
        ``repro.analysis.stats.collect_routes``.
        """
        return row_prefix_sums(self.hop_latency_ms, self.low_layer_hops)

    def path(self, lane: int) -> list[int]:
        """The peers visited by one lane (requires materialized paths)."""
        require(self.paths is not None, "batch was routed without paths=True")
        assert self.paths is not None
        row = self.paths[lane]
        return [int(p) for p in row[: int(self.hops[lane]) + 1]]
