"""SLO reporting: turn a serve run into throughput + tail-latency facts.

:class:`SLOReport` reads the ``serve.*`` counters and phase histograms
a :class:`~repro.serve.service.DHTService` run recorded and condenses
them into the numbers an operator would put on a dashboard: offered vs
achieved throughput, outcome counts, and per-phase latency quantiles
(p50/p99/p999) with the queue-wait / dispatch / route / replica-fan-out
breakdown.  Quantiles come from the deterministic log-bucketed
histograms in :mod:`repro.metrics` (~one log-bucket relative error),
so the whole report — :meth:`SLOReport.as_dict` included — is
byte-reproducible for a fixed run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.registry import Histogram
from repro.serve.service import ServeResult

__all__ = ["PHASES", "SLOReport", "phase_stats"]

#: Latency phases reported per run: metric suffix -> histogram name.
PHASES = {
    "total": "serve.total_ms",
    "queue_wait": "serve.queue_wait_ms",
    "service": "serve.service_ms",
    "route": "serve.route_ms",
    "fanout": "serve.fanout_ms",
    "get_total": "serve.get.total_ms",
    "put_total": "serve.put.total_ms",
}

#: Quantiles every phase reports.
_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


def phase_stats(hist: Histogram | None) -> dict[str, float]:
    """One phase's dashboard row (zeros for a phase never observed)."""
    if hist is None or hist.count == 0:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0, "max": 0.0}
    row = {"count": float(hist.count), "mean": hist.mean, "max": hist.max}
    for label, q in _QUANTILES:
        row[label] = hist.quantile(q)
    return row


@dataclass(frozen=True)
class SLOReport:
    """Throughput and tail-latency summary of one serve run."""

    offered_per_s: float
    duration_ms: float
    arrivals: int
    served: int
    rejected: int
    failed: int
    achieved_per_s: float
    makespan_ms: float
    max_queue_depth: int
    mean_batch_size: float
    phases: dict[str, dict[str, float]]

    @classmethod
    def from_result(
        cls,
        result: ServeResult,
        *,
        offered_per_s: float,
        duration_ms: float,
    ) -> "SLOReport":
        """Condense a :class:`ServeResult` into SLO numbers.

        ``offered_per_s``/``duration_ms`` describe the *schedule* (what
        the generator tried to impose); everything else is measured
        from the run's registry and completion counts.
        """
        reg = result.registry
        batch_hist = reg.histograms.get("serve.batch_size")
        phases = {
            label: phase_stats(reg.histograms.get(metric))
            for label, metric in PHASES.items()
        }
        return cls(
            offered_per_s=float(offered_per_s),
            duration_ms=float(duration_ms),
            arrivals=len(result.completions),
            served=result.served,
            rejected=result.rejected,
            failed=result.counts.get("failed", 0),
            achieved_per_s=result.throughput_per_s,
            makespan_ms=result.makespan_ms,
            max_queue_depth=result.max_queue_depth,
            mean_batch_size=batch_hist.mean if batch_hist is not None else 0.0,
            phases=phases,
        )

    @property
    def goodput_fraction(self) -> float:
        """Served arrivals as a fraction of all arrivals (1.0 when idle)."""
        return self.served / self.arrivals if self.arrivals else 1.0

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-safe dump (insertion order is deterministic)."""
        return {
            "offered_per_s": self.offered_per_s,
            "duration_ms": self.duration_ms,
            "arrivals": self.arrivals,
            "served": self.served,
            "rejected": self.rejected,
            "failed": self.failed,
            "achieved_per_s": self.achieved_per_s,
            "goodput_fraction": self.goodput_fraction,
            "makespan_ms": self.makespan_ms,
            "max_queue_depth": self.max_queue_depth,
            "mean_batch_size": self.mean_batch_size,
            "phases": {k: dict(v) for k, v in sorted(self.phases.items())},
        }
