"""The serving layer: a request-queue front-end over the DHT stacks.

``repro.serve`` turns the routing library into something that serves
(DESIGN.md §12): a :class:`DHTService` accepts ``get``/``put``/
``join``/``leave``/``rebalance`` requests across an explicit bounded-queue boundary,
dispatches them with configurable worker concurrency on a
deterministic simulated clock, coalesces queued lookups into batched
dispatches (routed by one :mod:`repro.engine` call per membership
epoch), fans writes out through
:class:`~repro.replication.store.ReplicatedStore`, and records a
queue-wait / service / route / replica-fan-out latency breakdown into
:mod:`repro.metrics` histograms.  Pair it with :mod:`repro.loadgen`
for open-loop load generation and SLO reporting.
"""

from repro.serve.config import ServiceConfig
from repro.serve.request import OPS, Completion, Request
from repro.serve.service import DHTService, ServeResult

__all__ = [
    "OPS",
    "Completion",
    "DHTService",
    "Request",
    "ServeResult",
    "ServiceConfig",
]
