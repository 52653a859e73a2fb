"""Frozen serving-layer configuration (DESIGN.md §12).

The knobs split into three groups:

* **capacity** — ``workers`` concurrent dispatch slots and the
  ``max_batch`` coalescing window (1 = per-request scalar dispatch);
* **admission** — ``queue_limit`` bounds the pending queue (arrivals
  beyond the bound are rejected immediately — load shedding at the
  door) and ``deadline_ms`` sheds requests whose queue wait already
  exceeds their budget at dispatch time;
* **cost model** — how long one dispatch occupies a worker, in
  *simulated* milliseconds.  ``dispatch_overhead_ms`` is paid once per
  dispatch call and amortizes across a coalesced batch — the reason
  batching moves the saturation knee — while ``per_lookup_ms`` /
  ``per_write_ms`` / ``per_membership_ms`` are the marginal per-request
  costs.  Network time (routing, replica fan-out) is *not* worker
  occupancy: the service is modelled as an async front-end that issues
  messages and yields, so only CPU-shaped dispatch work holds a slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require, require_int

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration for one :class:`~repro.serve.DHTService`."""

    #: Concurrent dispatch slots (the ``c`` of the queueing system).
    workers: int = 4
    #: Max pending requests before arrivals are rejected (None = unbounded).
    queue_limit: int | None = None
    #: Coalescing window: lookups per simulated dispatch.
    max_batch: int = 32
    #: Queue-wait budget; requests older than this are shed at dispatch.
    deadline_ms: float | None = None
    #: Fixed cost of one dispatch call (amortized across a batch).
    dispatch_overhead_ms: float = 5.0
    #: Marginal cost per coalesced lookup.
    per_lookup_ms: float = 0.5
    #: Marginal cost per replicated write.
    per_write_ms: float = 2.0
    #: Marginal cost per membership wave (join/leave rebuild work).
    per_membership_ms: float = 25.0

    def __post_init__(self) -> None:
        require_int(self.workers, 1, name="workers")
        require_int(self.max_batch, 1, name="max_batch")
        if self.queue_limit is not None:
            require_int(self.queue_limit, 1, name="queue_limit")
        require(
            self.deadline_ms is None or self.deadline_ms > 0,
            f"deadline_ms must be > 0 or None, got {self.deadline_ms}",
        )
        require(
            self.dispatch_overhead_ms >= 0
            and self.per_lookup_ms >= 0
            and self.per_write_ms >= 0
            and self.per_membership_ms >= 0,
            "cost-model parameters must be >= 0",
        )
