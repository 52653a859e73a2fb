"""Unified observability: registries, lookup spans, sinks (DESIGN.md §7).

Everything the repo measures flows through this package:

* :mod:`repro.metrics.registry` — named counters, gauges and
  deterministic log-bucketed streaming histograms;
* :mod:`repro.metrics.spans` — per-lookup tracing with per-hop ring
  layers, recorded by the routing stacks when a
  :class:`~repro.metrics.spans.SpanRecorder` is attached;
* :mod:`repro.metrics.sinks` — in-memory and JSONL span sinks.

Protocol traffic is counted by :class:`~repro.sim.network.SimNetwork`
itself (``messages_sent``, ``sent_by_kind``), mirrored into a registry
by ``attach_metrics``.

Collection is off by default everywhere: networks and simulators carry
a ``metrics`` attribute that is ``None`` until explicitly attached, so
the uninstrumented hot path pays a single attribute check.  There is no
other off switch.
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
