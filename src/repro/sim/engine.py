"""A small, fast discrete-event simulation engine.

Design: a single binary heap of ``(time, seq, callback)`` entries.  The
monotonically increasing sequence number breaks ties deterministically
(events scheduled earlier run earlier at equal timestamps) and keeps the
heap comparison away from unorderable callback objects.  Cancellation is
lazy: :meth:`EventHandle.cancel` marks the entry dead and the main loop
skips it when popped — O(1) cancel, no heap surgery.

The engine is deliberately synchronous and single-threaded: given the
same schedule of callbacks it produces the same execution order on every
run, which the reproducibility rule (``repro.util.rng``) depends on.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.registry import MetricsRegistry

__all__ = ["Simulator", "EventHandle"]


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "_alive")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the event is still pending."""
        return self._alive

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        self._alive = False


class Simulator:
    """Event-driven virtual clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> (fired, sim.now)
    (['b', 'a'], 5.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, EventHandle, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self.events_processed = 0
        # Optional unified-observability registry (repro.metrics): when
        # attached, each processed event increments a counter and the
        # queue depth / clock land in gauges.  None by default.
        self.metrics: "MetricsRegistry | None" = None

    def attach_metrics(self, registry: "MetricsRegistry") -> "MetricsRegistry":
        """Mirror event accounting into ``registry`` (returns it)."""
        self.metrics = registry
        return registry

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` time units.

        Returns a handle that can cancel the event before it fires.
        """
        require(delay >= 0, f"delay must be >= 0, got {delay}")
        self._seq += 1
        handle = EventHandle(self.now + delay, self._seq)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle, callback, args))
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        require(time >= self.now, f"cannot schedule in the past ({time} < {self.now})")
        return self.schedule(time - self.now, callback, *args)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process one pending event; False if the queue is empty."""
        while self._heap:
            time, _seq, handle, callback, args = heapq.heappop(self._heap)
            if not handle.alive:
                continue
            handle._alive = False
            self.now = time
            callback(*args)
            self.events_processed += 1
            if self.metrics is not None:
                self.metrics.inc("sim.events_processed")
                self.metrics.set_gauge("sim.queue_depth", len(self._heap))
                self.metrics.set_gauge("sim.clock_ms", self.now)
            return True
        return False

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the clock would pass this timestamp (pending later
            events stay queued; the clock advances to ``until``).
        max_events:
            Safety valve for protocols that schedule periodic timers
            forever; processes at most this many events, then raises
            RuntimeError if more remain so tests fail loudly instead of
            spinning.
        """
        processed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            if max_events is not None and processed >= max_events:
                # Budget exhausted: only complain if a live event (one
                # that would actually run, within `until`) is pending.
                while self._heap and not self._heap[0][2].alive:
                    heapq.heappop(self._heap)
                if not self._heap:
                    return
                if until is not None and self._heap[0][0] > until:
                    self.now = until
                    return
                raise RuntimeError(f"exceeded max_events={max_events}")
            if not self.step():
                return
            processed += 1
