"""Protocol-message tracing on the unified metrics registry.

:class:`MessageTracer` records every
:class:`~repro.sim.network.SimNetwork` send as a structured event, with
filtering and aggregation helpers.  It now also feeds an optional
:class:`~repro.metrics.registry.MetricsRegistry`, so per-phase traffic
attribution (join cost, steady-state upkeep) lands in the same place as
routing spans and simulator counters.  (The tracer's former home,
``repro.sim.trace``, went through a deprecation-stub release and is now
deleted.)
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.metrics.registry import MetricsRegistry
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Message, SimNetwork

__all__ = ["TracedMessage", "MessageTracer"]


@dataclass(frozen=True)
class TracedMessage:
    """One recorded message send."""

    time_ms: float
    src: int
    dst: int
    kind: str
    delay_ms: float


class MessageTracer:
    """Records message sends on a network.

    Wraps ``network.send`` (composition, not inheritance, so any
    already-constructed network can be traced).  Tracing can be paused
    and resumed to bracket a phase of interest::

        tracer = MessageTracer(network)
        tracer.start()
        ...  # run joins
        join_cost = tracer.count()
        tracer.reset(); ...  # run lookups

    With a ``registry``, every traced send also increments
    ``trace.messages`` / ``trace.sent.<kind>`` counters and records the
    link delay in the ``trace.delay_ms`` histogram.
    """

    def __init__(
        self,
        network: "SimNetwork",
        *,
        max_events: int = 1_000_000,
        registry: MetricsRegistry | None = None,
    ) -> None:
        require(max_events >= 1, "max_events must be >= 1")
        self.network = network
        self.max_events = max_events
        self.registry = registry
        self.events: list[TracedMessage] = []
        self._active = False
        self._original_send: Callable[[int, int, "Message"], None] = network.send

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording (idempotent)."""
        if self._active:
            return
        self._active = True

        def traced_send(src: int, dst: int, message: "Message") -> None:
            if len(self.events) < self.max_events:
                delay = (
                    0.0 if src == dst else float(self.network.latency.pair(src, dst))
                )
                self.events.append(
                    TracedMessage(
                        time_ms=self.network.sim.now,
                        src=src,
                        dst=dst,
                        kind=message.kind,
                        delay_ms=delay,
                    )
                )
                if self.registry is not None:
                    self.registry.inc("trace.messages")
                    self.registry.inc(f"trace.sent.{message.kind}")
                    self.registry.observe("trace.delay_ms", delay)
            self._original_send(src, dst, message)

        self.network.send = traced_send  # type: ignore[method-assign]

    def stop(self) -> None:
        """Stop recording and restore the network's send."""
        if not self._active:
            return
        self.network.send = self._original_send  # type: ignore[method-assign]
        self._active = False

    def reset(self) -> None:
        """Clear recorded events (keeps recording if active)."""
        self.events.clear()

    def __enter__(self) -> "MessageTracer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def count(self, *, kind: str | None = None) -> int:
        """Number of recorded sends (optionally of one kind)."""
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)
