"""Per-lookup tracing: one :class:`LookupSpan` per routed request.

A span records the whole life of one lookup — every hop with its ring
layer, endpoints and link delay, plus the outcome — which makes the
paper's core claim (*most hops resolve inside low-latency lower rings*,
§4.3) directly observable on a single request instead of only in
aggregate.  Spans serialize to flat JSON dicts and round-trip through
the JSONL sink (:mod:`repro.metrics.sinks`).

The :class:`SpanRecorder` is the glue the routing stacks talk to: it
folds each span into a :class:`~repro.metrics.registry.MetricsRegistry`
(hop/latency histograms, per-layer counters) and fans it out to sinks.
A batch is folded from its arrays by :meth:`SpanRecorder.record_batch`
(same registry state); spans are built only for sinks that keep them.
Collection is **off by default** — networks carry ``metrics = None``
and ``route()`` only builds span inputs after a not-None check, so the
uninstrumented hot path pays one attribute load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.dht.chord import _PlanLayer
    from repro.engine.result import BatchRouteResult
    from repro.metrics.sinks import SpanSink

__all__ = ["HopRecord", "LookupSpan", "SpanRecorder", "batch_spans"]


@dataclass(frozen=True)
class HopRecord:
    """One message forward inside a lookup.

    ``layer`` is the ring layer the hop ran in (1 = the global ring,
    2..m the lower HIERAS rings; flat DHTs report 1 everywhere), and
    ``ring`` the ring's name (``"global"`` for layer 1).  ``cache``
    annotates hops the caching subsystem (DESIGN.md §9) produced:
    ``"value-hit"`` / ``"shortcut"`` on the terminal hop of a cached
    lookup, ``""`` for ordinary routed hops.
    """

    index: int
    src: int
    dst: int
    layer: int
    ring: str
    latency_ms: float
    timeout: bool = False
    cache: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "src": self.src,
            "dst": self.dst,
            "layer": self.layer,
            "ring": self.ring,
            "latency_ms": self.latency_ms,
            "timeout": self.timeout,
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "HopRecord":
        d = cast("dict[str, Any]", data)
        return cls(
            index=int(d["index"]),
            src=int(d["src"]),
            dst=int(d["dst"]),
            layer=int(d["layer"]),
            ring=str(d["ring"]),
            latency_ms=float(d["latency_ms"]),
            timeout=bool(d["timeout"]),
            cache=str(d.get("cache", "")),
        )


@dataclass
class LookupSpan:
    """The trace of one routed request across all its hops.

    ``network`` labels the stack ("chord", "hieras", ...); ``owner`` is
    -1 when a failure-aware lookup died mid-route (``success`` False).
    """

    network: str
    source: int
    key: int
    owner: int
    success: bool = True
    hops: list[HopRecord] = field(default_factory=list)
    timeouts: int = 0
    retry_latency_ms: float = 0.0

    # ------------------------------------------------------------------
    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def latency_ms(self) -> float:
        """Left-to-right sum of per-hop link delays (excludes retry penalties).

        Not builtin ``sum()``, which is compensated from Python 3.12 on.
        """
        total = 0.0
        for hop in self.hops:
            total += hop.latency_ms
        return total

    @property
    def low_layer_hops(self) -> int:
        """Hops taken below the global ring (layer >= 2)."""
        return sum(1 for h in self.hops if h.layer >= 2)

    @property
    def low_layer_hop_share(self) -> float:
        """Fraction of this lookup's hops inside lower rings (§4.3)."""
        return self.low_layer_hops / len(self.hops) if self.hops else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Flat JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "network": self.network,
            "source": self.source,
            "key": self.key,
            "owner": self.owner,
            "success": self.success,
            "timeouts": self.timeouts,
            "retry_latency_ms": self.retry_latency_ms,
            "hops": [h.to_dict() for h in self.hops],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LookupSpan":
        d = cast("dict[str, Any]", data)
        return cls(
            network=str(d["network"]),
            source=int(d["source"]),
            key=int(d["key"]),
            owner=int(d["owner"]),
            success=bool(d["success"]),
            timeouts=int(d["timeouts"]),
            retry_latency_ms=float(d["retry_latency_ms"]),
            hops=[HopRecord.from_dict(h) for h in d["hops"]],
        )


def batch_spans(
    label: str, result: "BatchRouteResult", plan: "Sequence[_PlanLayer]"
) -> list[LookupSpan]:
    """Every lane's span, built from the batch's arrays.

    Equal to the spans the scalar ``route`` records for the same
    requests; ``plan`` is the routed network's layer plan, which names
    the ring of each hop's source peer.
    """
    require(result.paths is not None, "building spans requires paths=True")
    assert result.paths is not None
    spans: list[LookupSpan] = []
    for source, key, owner, per_layer, path, delay in zip(
        *(a.tolist() for a in (result.sources, result.keys, result.owner,
                               result.hops_per_layer, result.paths, result.hop_latency_ms))
    ):
        hops: list[HopRecord] = []
        for row, layer_hops in zip(plan, per_layer):
            for i in range(len(hops), len(hops) + layer_hops):
                ring = row.ring_name_at(path[i])
                hops.append(HopRecord(i, path[i], path[i + 1], row.layer, ring, delay[i]))
        spans.append(LookupSpan(label, source, key, owner, hops=hops))
    return spans


class SpanRecorder:
    """Folds spans into a registry and fans them out to sinks.

    Registry names are scoped by the span's network label, so one
    recorder can serve several stacks at once::

        chord.lookups, chord.hops, chord.latency_ms, ...
        hieras.lookups, hieras.hops, hieras.hops.layer2, ...
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sinks: "Sequence[SpanSink]" = (),
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.sinks: "list[SpanSink]" = list(sinks)

    def record(self, span: LookupSpan) -> None:
        """Account one finished lookup."""
        reg = self.registry
        if reg.enabled:
            label = span.network
            reg.inc(f"{label}.lookups")
            if not span.success:
                reg.inc(f"{label}.lookups_failed")
            if span.timeouts:
                reg.inc(f"{label}.timeouts", span.timeouts)
            reg.observe(f"{label}.hops", span.n_hops)
            reg.observe(f"{label}.latency_ms", span.latency_ms)
            reg.inc(f"{label}.total_hops", span.n_hops)
            for hop in span.hops:
                reg.inc(f"{label}.hops.layer{hop.layer}")
                if hop.layer >= 2:
                    reg.inc(f"{label}.low_layer_hops")
                if hop.cache:
                    reg.inc(f"{label}.cache.{hop.cache}")
        for sink in self.sinks:
            sink.emit(span)

    @property
    def keeps_spans(self) -> bool:
        """Whether any attached sink needs the spans themselves."""
        return any(sink.keeps_spans for sink in self.sinks)

    def record_batch(
        self, label: str, result: "BatchRouteResult", plan: "Sequence[_PlanLayer]"
    ) -> None:
        """Account every lane of a batch routed over ``plan``'s network.

        Leaves the registry exactly as :meth:`record` on each lane's
        span would — no counter the spans would not have created, same
        histogram bytes.  ``result`` needs paths only if a sink keeps spans.
        """
        lanes = len(result)
        if lanes == 0:
            return
        reg = self.registry
        if reg.enabled:
            reg.inc(f"{label}.lookups", lanes)
            reg.histogram(f"{label}.hops").record_many(result.hops)
            # Hop by hop is LookupSpan.latency_ms's left-to-right add for
            # every lane at once, each hop one contiguous row of the
            # engines' hop-major buffer; the padding adds exact zeros.
            latency = np.zeros(lanes, dtype=np.float64)
            for delays in result.hop_latency_ms.T[: int(result.hops.max())]:
                latency += delays
            reg.histogram(f"{label}.latency_ms").record_many(latency)
            reg.inc(f"{label}.total_hops", int(result.hops.sum()))
            low = 0
            for row, hops in zip(plan, result.hops_per_layer.sum(axis=0).tolist()):
                if hops:
                    reg.inc(f"{label}.hops.layer{row.layer}", hops)
                    low += hops if row.layer >= 2 else 0
            if low:
                reg.inc(f"{label}.low_layer_hops", low)
        for sink in self.sinks:
            sink.emit_batch(label, result, plan)

    def close(self) -> None:
        """Close every attached sink (flushes file-backed ones)."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    def low_layer_hop_share(self, label: str) -> float:
        """Aggregate lower-ring hop share for one network label."""
        total = self.registry.counter(f"{label}.total_hops").value
        low = self.registry.counter(f"{label}.low_layer_hops").value
        require(self.registry.enabled, "recorder has no live registry")
        return low / total if total else 0.0
