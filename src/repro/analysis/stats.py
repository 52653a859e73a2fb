"""Routing-result statistics: summaries and PDFs.

These are the measurement tools behind every figure: Figure 4 is a
hop-count PDF (:func:`hop_pdf`), and Figures 2/3/6–9 are means over
:class:`RouteSample` batches (Figure 5's latency CDF is computed inline
by the figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dht.base import DHTNetwork
from repro.util.validation import require
from repro.workloads.requests import RequestTrace

__all__ = [
    "RouteSample",
    "collect_routes",
    "summarize",
    "hop_pdf",
    "ratio_percent",
]


@dataclass
class RouteSample:
    """Vectorised outcome of running one trace through one network.

    Attributes
    ----------
    hops / latency_ms:
        Per-request totals.
    low_layer_hops / top_layer_hops:
        Hierarchical split (zeros / equal to ``hops`` for flat DHTs).
    low_layer_latency_ms:
        Latency accumulated on hops below the global ring.
    """

    hops: np.ndarray
    latency_ms: np.ndarray
    low_layer_hops: np.ndarray
    top_layer_hops: np.ndarray
    low_layer_latency_ms: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.low_layer_latency_ms is None:
            self.low_layer_latency_ms = np.zeros_like(self.latency_ms)

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def mean_hops(self) -> float:
        """Average number of routing hops (paper's Figure 2 metric)."""
        return float(self.hops.mean())

    @property
    def mean_latency_ms(self) -> float:
        """Average routing latency (paper's Figure 3 metric)."""
        return float(self.latency_ms.mean())

    @property
    def low_layer_hop_share(self) -> float:
        """Fraction of hops taken below the global ring (§4.3)."""
        total = self.hops.sum()
        return float(self.low_layer_hops.sum() / total) if total else 0.0

    @property
    def low_layer_latency_share(self) -> float:
        """Fraction of latency spent below the global ring (§4.3)."""
        total = self.latency_ms.sum()
        return float(self.low_layer_latency_ms.sum() / total) if total else 0.0

    @property
    def mean_top_layer_hops(self) -> float:
        """Average hops taken in the global ring per request."""
        return float(self.top_layer_hops.mean())

    def mean_link_delay(self, *, layer: str = "all") -> float:
        """Average per-hop delay over ``"all"``, ``"low"`` or ``"top"`` hops."""
        require(layer in ("all", "low", "top"), f"unknown layer {layer!r}")
        if layer == "all":
            hops, lat = self.hops.sum(), self.latency_ms.sum()
        elif layer == "low":
            hops, lat = self.low_layer_hops.sum(), self.low_layer_latency_ms.sum()
        else:
            hops = self.top_layer_hops.sum()
            lat = self.latency_ms.sum() - self.low_layer_latency_ms.sum()
        return float(lat / hops) if hops else 0.0


def collect_routes(
    network: DHTNetwork, trace: RequestTrace, *, engine: str = "batch"
) -> RouteSample:
    """Run every request of ``trace`` through ``network``.

    Routing goes through :func:`repro.engine.batch_route`, which alone
    decides between the vectorized kernels and the per-request scalar
    loop; ``engine`` is passed straight to it (``"scalar"`` is the
    per-request reference the engine tests compare against).  The
    sample is bit-identical either way, and the low-layer latency split
    is exact: a prefix sum of each lookup's per-hop delays.
    """
    from repro.engine import batch_route

    result = batch_route(network, trace.sources, trace.keys, engine=engine)
    return RouteSample(
        hops=result.hops,
        latency_ms=result.latency_ms,
        low_layer_hops=result.low_layer_hops,
        top_layer_hops=result.top_layer_hops,
        low_layer_latency_ms=result.low_layer_latency_ms(),
    )


def summarize(values: np.ndarray) -> dict[str, float]:
    """Mean / median / tail percentiles of a metric vector."""
    values = np.asarray(values, dtype=np.float64)
    require(len(values) >= 1, "cannot summarize an empty vector")
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "p90": float(np.percentile(values, 90)),
        "p99": float(np.percentile(values, 99)),
        "min": float(values.min()),
        "max": float(values.max()),
    }


def hop_pdf(hops: np.ndarray, *, max_hops: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Probability density of integer hop counts (Figure 4).

    Returns ``(hop_values, probability)`` with one entry per hop count
    from 0 to ``max_hops`` (default: observed maximum).  A ``max_hops``
    below the observed maximum raises ``ValueError``: the PDF would
    silently lose the mass of the longer lookups.
    """
    hops = np.asarray(hops, dtype=np.int64)
    observed = int(hops.max(initial=0))
    top = observed if max_hops is None else int(max_hops)
    require(top >= observed, f"max_hops={top} is below the longest lookup's {observed} hops")
    counts = np.bincount(hops, minlength=top + 1)
    return np.arange(top + 1), counts / max(len(hops), 1)


def ratio_percent(a: float, b: float) -> float:
    """``100 * a / b`` with a guard for zero denominators."""
    return 100.0 * a / b if b else float("nan")
