"""Unified observability: registries and lookup tracing (DESIGN.md §7).

Two modules:

* :mod:`repro.metrics.registry` — named counters, gauges and
  deterministic log-bucketed streaming histograms;
* :mod:`repro.metrics.spans` — lookup tracing: the routing stacks fold
  every finished lookup (hops per ring layer, latency, failures) into a
  registry when a :class:`~repro.metrics.spans.SpanRecorder` is attached.

The event-driven components count their own events in plain
attributes and import nothing from here: protocol traffic is
:class:`~repro.sim.network.SimNetwork`'s ``messages_sent`` /
``sent_by_kind``, store events are ``ReplicatedStore.stats``.

Tracing is off by default: trace-driven networks carry a ``metrics``
attribute that is ``None`` until a recorder is attached, so the
untraced hot path pays a single attribute check.  There is no other
off switch.
"""

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.spans import SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecorder",
]
