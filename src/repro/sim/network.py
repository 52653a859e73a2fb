"""Message-level network on top of the event engine.

Messages between peers are delivered after the latency-model delay for
that pair (converted from milliseconds to the simulator's time unit,
also milliseconds).  Failed/departed nodes silently drop incoming
messages — exactly the failure mode DHT maintenance protocols must
tolerate — and the network counts every message and its delay so
experiments can report protocol overheads (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.topology.base import LatencyModel
from repro.util.rng import make_rng
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.registry import MetricsRegistry
    from repro.sim.engine import Simulator
    from repro.sim.node import SimNode

__all__ = ["Message", "SimNetwork"]


@dataclass
class Message:
    """A protocol message in flight.

    ``kind`` routes the message to a handler; ``payload`` is free-form;
    ``token`` correlates requests with responses.
    """

    kind: str
    sender: int
    payload: dict[str, Any] = field(default_factory=dict)
    token: int = 0


class SimNetwork:
    """Registry of simulated peers plus latency-delayed delivery.

    ``loss_rate`` injects independent per-message loss (failure-injection
    testing: DHT maintenance must converge despite lost messages); losses
    are counted in :attr:`messages_lost`.
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: LatencyModel,
        *,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        require(0.0 <= loss_rate < 1.0, "loss_rate must be in [0, 1)")
        self.sim = sim
        self.latency = latency
        # loss_rate is deliberately a plain mutable attribute: fault
        # injectors flip it mid-run (loss bursts), so the RNG must exist
        # up front — via the repo-wide determinism contract.
        self.loss_rate = loss_rate
        self._loss_rng = make_rng(loss_seed)
        self._nodes: dict[int, "SimNode"] = {}
        # Accounting (per message kind) for the §3.4 overhead analysis.
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_lost = 0
        self.total_delay_ms = 0.0
        self.sent_by_kind: dict[str, int] = {}
        # Optional unified-observability registry (repro.metrics): when
        # attached, every count above is mirrored into named counters so
        # protocol traffic lands next to routing spans.  None by default
        # — the unattached hot path pays one attribute check.
        self.metrics: "MetricsRegistry | None" = None

    def attach_metrics(self, registry: "MetricsRegistry") -> "MetricsRegistry":
        """Mirror message accounting into ``registry`` (returns it)."""
        self.metrics = registry
        return registry

    # ------------------------------------------------------------------
    def register(self, node: "SimNode") -> None:
        """Add a peer to the network (its ``peer`` must be unique)."""
        require(node.peer not in self._nodes, f"peer {node.peer} already registered")
        self._nodes[node.peer] = node

    def unregister(self, peer: int) -> None:
        """Remove a peer entirely (it stops receiving messages)."""
        self._nodes.pop(peer, None)

    def node(self, peer: int) -> "SimNode":
        """Look up a registered peer."""
        return self._nodes[peer]

    def __contains__(self, peer: int) -> bool:
        return peer in self._nodes

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Message) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the link delay.

        Local delivery (``src == dst``) is immediate-but-asynchronous
        (zero delay, still via the event queue) so handler re-entrancy
        never occurs.  Messages to unregistered or failed peers are
        counted and dropped at delivery time — the sender cannot know.
        """
        self.messages_sent += 1
        self.sent_by_kind[message.kind] = self.sent_by_kind.get(message.kind, 0) + 1
        m = self.metrics
        if m is not None:
            m.inc("sim.messages_sent")
            m.inc(f"sim.sent.{message.kind}")
        if src != dst:
            if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
                self.messages_lost += 1
                if m is not None:
                    m.inc("sim.messages_lost")
                return
        # Lost messages never cross a link, so they contribute no delay.
        delay = 0.0 if src == dst else float(self.latency.pair(src, dst))
        self.total_delay_ms += delay
        if m is not None:
            m.observe("sim.link_delay_ms", delay)
        self.sim.schedule(delay, self._deliver, dst, message)

    def _deliver(self, dst: int, message: Message) -> None:
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            self.messages_dropped += 1
            if self.metrics is not None:
                self.metrics.inc("sim.messages_dropped")
            return
        node.handle_message(message)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Message-count / delay summary for overhead reporting.

        ``mean_delay_ms`` averages over messages that actually crossed a
        link (lost messages contribute neither delay nor weight).
        """
        delivered = self.messages_sent - self.messages_lost
        return {
            "messages_sent": float(self.messages_sent),
            "messages_dropped": float(self.messages_dropped),
            "messages_lost": float(self.messages_lost),
            "total_delay_ms": self.total_delay_ms,
            "mean_delay_ms": self.total_delay_ms / delivered if delivered else 0.0,
            "sent_by_kind": dict(self.sent_by_kind),
        }
