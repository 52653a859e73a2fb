"""Request/completion records crossing the serving-layer queue boundary.

A :class:`Request` is what a client submits: an operation, its arrival
time on the simulated clock, and the operands (``get``/``put`` carry a
source peer and a key name; ``join``/``leave`` carry a membership
wave; ``rebalance`` carries nothing).  A :class:`Completion` is the
service's account of what happened to it — admission outcome, the
dispatch batch it rode in, and the per-phase latency breakdown (queue
wait → dispatch service → route → replica fan-out) the SLO reporter
aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.util.validation import require

__all__ = ["OPS", "Completion", "Request"]

#: Operations the service accepts, in dispatch-priority-free FIFO order.
OPS = ("get", "put", "join", "leave", "rebalance")


@dataclass(frozen=True)
class Request:
    """One client request entering the service queue.

    ``get``/``put`` require ``source`` and ``name`` (``put`` also
    carries ``value``); ``join``/``leave`` carry the ``peers`` of a
    membership wave instead.  A ``leave`` may be ``graceful`` (the
    store hands its keys off first); a ``join`` may carry
    ``ring_names``, one lower-ring name tuple (layer 2 first) per peer,
    which HIERAS rebinds the joiners to (a flat stack just revives
    them).  ``rebalance`` re-homes every stored key onto its current
    replica group.
    """

    op: str
    at_ms: float
    source: int = -1
    name: str = ""
    value: Any = None
    peers: tuple[int, ...] = ()
    graceful: bool = False
    ring_names: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        require(self.op in OPS, f"unknown op {self.op!r}; expected one of {OPS}")
        require(self.at_ms >= 0.0, f"at_ms must be >= 0, got {self.at_ms}")
        if self.op in ("get", "put"):
            require(self.source >= 0, f"{self.op} requests need a source peer")
            require(bool(self.name), f"{self.op} requests need a key name")
        elif self.op == "rebalance":
            require(not self.peers, "a rebalance carries no peers")
        else:
            require(len(self.peers) > 0, f"{self.op} requests need a peer wave")
        if self.graceful or self.ring_names:
            require(not self.graceful or self.op == "leave", "only a leave is graceful")
            require(
                not self.ring_names or (self.op == "join" and len(self.ring_names) == len(self.peers)),
                "ring_names: one name tuple per peer of a join",
            )


@dataclass(frozen=True)
class Completion:
    """The service's record of one request's fate.

    ``outcome`` is one of ``"ok"`` (served), ``"rejected"`` (admission
    control turned it away at arrival), or ``"failed"`` (dispatched but
    unservable — a failed route or replicated write, or no servable
    peer to send it from).  Latency phases are 0 for requests that
    never reached the corresponding stage; ``total_ms`` is always the
    user-visible wait from arrival to the service's last action on the
    request.
    """

    seq: int
    op: str
    outcome: str
    arrival_ms: float
    dispatch_ms: float = 0.0
    finish_ms: float = 0.0
    queue_wait_ms: float = 0.0
    service_ms: float = 0.0
    route_ms: float = 0.0
    fanout_ms: float = 0.0
    batch_size: int = 0
    owner: int = -1
    value: Any = None

    @property
    def served(self) -> bool:
        """Whether the request completed successfully."""
        return self.outcome == "ok"

    @property
    def total_ms(self) -> float:
        """User-visible wait: queue + dispatch service + network phases."""
        return self.queue_wait_ms + self.service_ms + self.route_ms + self.fanout_ms
