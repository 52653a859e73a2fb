"""Batched route results: array-of-structs counterpart of ``RouteResult``.

A :class:`BatchRouteResult` stores one lane per lookup: owners, hop
counts, per-layer hop counts, total latencies, the per-hop latency
values (needed for the exact low-layer latency split) and — optionally
— materialized paths.

Float contract: ``latency_ms[i]`` equals ``np.sum`` over lane ``i``'s
hop delays — the scalar ``route_latency``'s ``pairs(...).sum()`` over
the same values in the same order — bit for bit, not approximately.
:func:`hop_sums` replays numpy's pairwise association for every lane
at once, and a tier-1 property test holds it to ``np.sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.util.validation import require

__all__ = ["BatchRouteResult", "hop_sums"]

#: Lanes :func:`hop_sums` reduces per pass; bounds its temporaries.
_SUM_LANES = 8192


def hop_sums(
    hops: npt.NDArray[np.float64], lengths: npt.NDArray[np.int64]
) -> npt.NDArray[np.float64]:
    """``np.sum(hops[:lengths[i], i])`` for every lane ``i``, bit for bit.

    ``hops`` is hop-major, ``(rows, lanes)``.  numpy sums ``n`` floats as
    ``0.0 + pairwise(n)``: sequentially below 8; up to 128 into eight
    strided partial sums, reduced ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the ``n % 8`` tail in order; beyond 128 by halves.  The first
    two cases run here for every lane of a slice at once, unmasked:
    ``partial[h]`` is numpy's running value after the first ``h`` values
    of a row whose length lies in ``h``'s block of eight — the tree over
    the whole blocks before that block (``-0.0``, float addition's exact
    identity, before the first), then that block's values in order.
    Each lane reads ``partial[length]``, so nothing at or past its
    length reaches its sum.  A lane past 128 hops takes ``np.sum`` on
    its own.
    """
    out = np.zeros(len(lengths), dtype=np.float64)
    for lo in range(0, len(lengths), _SUM_LANES):
        length = np.minimum(lengths[lo : lo + _SUM_LANES], 128)
        values = hops[:, lo : lo + _SUM_LANES]
        top = int(length.max(initial=0))
        partial = np.empty((top + 1, len(length)), dtype=np.float64)
        partial[0] = -0.0
        for b in range(0, top + 1, 8):
            if b:
                acc = values[:8] if b == 8 else acc + values[b - 8 : b]
                pairs = acc[0::2] + acc[1::2]
                partial[b] = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
            for h in range(b, min(b + 7, top)):
                np.add(partial[h], values[h], out=partial[h + 1])
        out[lo : lo + _SUM_LANES] = 0.0 + partial[length, np.arange(len(length))]
    for lane in np.flatnonzero(lengths > 128).tolist():
        out[lane] = np.sum(hops[: lengths[lane], lane])
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
        low-layer latency split.  The engines return it as the
        transpose of a hop-major buffer, so ``hop_latency_ms[:, h]`` —
        every lane's hop ``h`` — is contiguous.
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
        return hop_sums(self.hop_latency_ms.T, self.low_layer_hops)

    def path(self, lane: int) -> list[int]:
        """The peers visited by one lane (requires materialized paths)."""
        require(self.paths is not None, "batch was routed without paths=True")
        assert self.paths is not None
        row = self.paths[lane]
        return [int(p) for p in row[: int(self.hops[lane]) + 1]]
