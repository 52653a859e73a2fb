"""Memory-bounded streaming lookups over the batch router.

At a million peers, 10⁷ lookups routed in one :func:`~repro.engine.batch.
batch_route` call would materialize O(requests × max-hops) hop buffers —
gigabytes of per-lane state that exists only to be summed.  The
streaming front-end routes the trace in bounded chunks and folds each
chunk's :class:`~repro.engine.result.BatchRouteResult` into a compact
:class:`StreamStats` accumulator, so peak memory is O(chunk) regardless
of trace length.  That holds with a span recorder attached too: each
chunk is folded into the registry from its arrays, and no paths are
materialized.

Determinism contract: all *integer* statistics (hop counts, histogram,
per-layer sums, the owner checksum) are chunk-size invariant — the
checksum weights each lane by its global trace index, so any chunking
of the same trace produces the same value.  ``latency_sum_ms`` is a
float sum and therefore association-sensitive: it is reproducible for a
*fixed* ``chunk_size`` (benchmarks pin one) but may differ in the last
ulps across different chunkings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.dht.base import DHTNetwork
from repro.engine.batch import _lanes, batch_route
from repro.engine.result import BatchRouteResult
from repro.util.validation import require, require_int

__all__ = ["StreamStats", "stream_batch_route"]

#: Weight multiplier for the order-sensitive owner checksum
#: (the 64-bit golden-ratio constant; arithmetic wraps mod 2⁶⁴).
_CHECKSUM_PRIME = np.uint64(0x9E3779B97F4A7C15)


def _zero_histogram() -> npt.NDArray[np.int64]:
    return np.zeros(1, dtype=np.int64)


@dataclass
class StreamStats:
    """Running aggregates over a streamed batch-route trace."""

    lookups: int = 0
    chunks: int = 0
    hop_sum: int = 0
    hop_max: int = 0
    latency_sum_ms: float = 0.0
    owner_checksum: int = 0
    hop_histogram: npt.NDArray[np.int64] = field(default_factory=_zero_histogram)
    per_layer_hop_sum: npt.NDArray[np.int64] | None = None

    def absorb(self, result: BatchRouteResult, *, offset: int) -> None:
        """Fold one chunk's results in; ``offset`` is its global start.

        The lane weights of ``owner_checksum`` come from the *global*
        trace position ``offset + lane``, which is what makes the
        checksum invariant under re-chunking.
        """
        n = len(result)
        if n == 0:
            return
        self.chunks += 1
        self.lookups += n
        hops = result.hops
        self.hop_sum += int(hops.sum())
        self.hop_max = max(self.hop_max, int(hops.max()))
        counts = np.bincount(hops).astype(np.int64)
        if len(counts) > len(self.hop_histogram):
            grown = np.zeros(len(counts), dtype=np.int64)
            grown[: len(self.hop_histogram)] = self.hop_histogram
            self.hop_histogram = grown
        self.hop_histogram[: len(counts)] += counts
        layer_sums = result.hops_per_layer.sum(axis=0, dtype=np.int64)
        if self.per_layer_hop_sum is None:
            self.per_layer_hop_sum = layer_sums
        else:
            require(
                len(layer_sums) == len(self.per_layer_hop_sum),
                "chunk layer count changed mid-stream",
            )
            self.per_layer_hop_sum += layer_sums
        self.latency_sum_ms += float(result.latency_ms.sum())
        lanes = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
        contrib = (result.owner.astype(np.uint64) + np.uint64(1)) * (
            lanes * _CHECKSUM_PRIME
        )
        acc = np.zeros(1, dtype=np.uint64)
        acc[0] = np.uint64(self.owner_checksum)
        acc += contrib.sum(dtype=np.uint64)
        self.owner_checksum = int(acc[0])

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (integer stats chunk-size invariant)."""
        per_layer = self.per_layer_hop_sum
        return {
            "lookups": self.lookups,
            "chunks": self.chunks,
            "hop_sum": self.hop_sum,
            "hop_max": self.hop_max,
            "mean_hops": self.hop_sum / self.lookups if self.lookups else 0.0,
            "hop_histogram": [int(c) for c in self.hop_histogram],
            "per_layer_hop_sum": (
                [] if per_layer is None else [int(c) for c in per_layer]
            ),
            "latency_sum_ms": self.latency_sum_ms,
            "mean_latency_ms": (
                self.latency_sum_ms / self.lookups if self.lookups else 0.0
            ),
            "owner_checksum": self.owner_checksum,
        }


def stream_batch_route(
    network: DHTNetwork,
    sources: object,
    keys: object,
    *,
    chunk_size: int = 65536,
) -> StreamStats:
    """Route ``(sources, keys)`` in bounded chunks, returning aggregates.

    Each chunk goes through :func:`~repro.engine.batch.batch_route`
    with ``paths=False`` (streaming exists to avoid per-lane state), so
    owners, hop counts, and latencies per lane are exactly what one
    monolithic batch call would produce; only the float latency *sum*
    depends on the chunking (see module docstring).
    """
    require_int(chunk_size, 1, name="chunk_size")
    # Checked once, before chunking: the engine's own conversion, so a
    # float source fails here as it does in ``batch_route``.
    src = _lanes(sources, "sources", np.int64)
    key_arr = _lanes(keys, "keys", np.uint64)
    require(len(src) == len(key_arr), "sources and keys must have equal length")
    stats = StreamStats()
    for start in range(0, len(src), chunk_size):
        stop = min(start + chunk_size, len(src))
        result = batch_route(network, src[start:stop], key_arr[start:stop], paths=False)
        stats.absorb(result, offset=start)
    return stats
