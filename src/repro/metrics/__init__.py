"""Unified observability: registries, lookup spans, sinks (DESIGN.md §7).

Three modules:

* :mod:`repro.metrics.registry` — named counters, gauges and
  deterministic log-bucketed streaming histograms;
* :mod:`repro.metrics.spans` — per-lookup tracing with per-hop ring
  layers, recorded by the routing stacks when a
  :class:`~repro.metrics.spans.SpanRecorder` is attached;
* :mod:`repro.metrics.sinks` — in-memory and JSONL span sinks.

The event-driven components count their own events in plain
attributes and import nothing from here: protocol traffic is
:class:`~repro.sim.network.SimNetwork`'s ``messages_sent`` /
``sent_by_kind``, store events are ``ReplicatedStore.stats``.

Span collection is off by default: trace-driven networks carry a
``metrics`` attribute that is ``None`` until a recorder is attached, so
the untraced hot path pays a single attribute check.  There is no other
off switch.
"""

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.sinks import JsonlSink, MemorySink, SpanSink, read_jsonl
from repro.metrics.spans import HopRecord, LookupSpan, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "HopRecord",
    "LookupSpan",
    "SpanRecorder",
    "SpanSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
]
