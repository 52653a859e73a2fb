"""Frozen serving-layer configuration (DESIGN.md §12).

The settings split into two groups:

* **capacity** — ``workers`` concurrent dispatch slots and the
  ``max_batch`` coalescing window (1 = per-request scalar dispatch);
* **admission** — ``queue_limit`` bounds the pending queue (client
  arrivals beyond the bound are rejected immediately — load shedding
  at the door; ``join``/``leave`` waves and ``rebalance`` passes
  always queue).

The cost model is fixed: how long one dispatch occupies a worker, in
*simulated* milliseconds.  ``DISPATCH_OVERHEAD_MS`` is paid once per
dispatch call and amortizes across a coalesced batch — the reason
batching moves the saturation knee — while ``PER_LOOKUP_MS`` /
``PER_WRITE_MS`` / ``PER_MEMBERSHIP_MS`` are the marginal per-request
costs.  Network time (routing, replica fan-out) is *not* worker
occupancy: the service is modelled as an async front-end that issues
messages and yields, so only CPU-shaped dispatch work holds a slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_int

__all__ = ["DISPATCH_OVERHEAD_MS", "PER_LOOKUP_MS", "PER_MEMBERSHIP_MS", "PER_WRITE_MS", "ServiceConfig"]

#: Fixed cost of one dispatch call (amortized across a batch).
DISPATCH_OVERHEAD_MS = 5.0
#: Marginal cost per coalesced lookup.
PER_LOOKUP_MS = 0.5
#: Marginal cost per replicated write.
PER_WRITE_MS = 2.0
#: Marginal cost per membership wave (join/leave rebuild work).
PER_MEMBERSHIP_MS = 25.0


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration for one :class:`~repro.serve.DHTService`."""

    #: Concurrent dispatch slots (the ``c`` of the queueing system).
    workers: int = 4
    #: Max pending requests before arrivals are rejected (None = unbounded).
    queue_limit: int | None = None
    #: Coalescing window: lookups per simulated dispatch.
    max_batch: int = 32

    def __post_init__(self) -> None:
        require_int(self.workers, 1, name="workers")
        require_int(self.max_batch, 1, name="max_batch")
        if self.queue_limit is not None:
            require_int(self.queue_limit, 1, name="queue_limit")
