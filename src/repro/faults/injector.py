"""Apply a :class:`FaultPlan` to either execution stack.

One :class:`FaultInjector` owns the evolving :class:`FaultState` (who is
dead, the ambient loss rate) and knows how to advance it along the
plan's timeline:

* **Static stack** — experiments drive a virtual clock by calling
  :meth:`FaultInjector.advance_to` between lookups; the networks'
  ``route_lossy`` methods consult the injector per hop through
  :meth:`FaultInjector.contact`, which charges timeout penalties from
  the shared :class:`~repro.faults.retry.RetryPolicy`.  Crashes do *not*
  rebuild the ring snapshots — finger tables stay stale on purpose, so
  lookups actually traverse dead fingers the way a real overlay does
  between stabilisation rounds.
* **Discrete-event stack** — :meth:`FaultInjector.install_sim`
  schedules the same events on the simulator: crashes call
  ``SimNode.fail``, revivals ``SimNode.recover``, and loss bursts
  mutate ``SimNetwork.loss_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.util.rng import RngFactory
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.network import SimNetwork

__all__ = ["FaultState", "FaultInjector", "LossyContext", "LookupFaults"]


@dataclass
class LossyContext:
    """Per-lookup accumulator of failure costs (filled by ``contact``)."""

    timeouts: int = 0
    retry_latency_ms: float = 0.0


class LookupFaults(LossyContext):
    """What one ``route_lossy`` lookup sees of the fault world.

    The handle :meth:`SortedRing.walk
    <repro.dht.ring_array.SortedRing.walk>` routes under: how a contact
    goes (:meth:`contact`, charging this lookup's accumulators), who is
    really alive (``is_dead`` — ground truth, used only to fix the
    destination, never to pick hops) and how many successor-list
    entries a node falls back on (``fallback_r``, §3.3).
    """

    def __init__(self, injector: FaultInjector) -> None:
        super().__init__()
        self._injector = injector
        self.is_dead = injector.state.is_dead
        self.fallback_r = injector.policy.successor_fallback

    def contact(self, src: int, dst: int) -> bool:
        """Whether ``src`` reaches ``dst``; timeouts are charged here."""
        return self._injector.contact(src, dst, self)


class FaultState:
    """Current fault conditions, mutated as plan events apply."""

    def __init__(self, n_peers: int) -> None:
        require(n_peers >= 1, "n_peers must be >= 1")
        self.n_peers = n_peers
        self.dead = np.zeros(n_peers, dtype=bool)
        self.loss_rate = 0.0

    def is_dead(self, peer: int) -> bool:
        """Ground-truth liveness of ``peer``."""
        return bool(self.dead[peer])

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a message from ``src`` could ever reach ``dst``: both are alive."""
        return not (self.dead[dst] or self.dead[src])


class FaultInjector:
    """Executes one compiled fault schedule against one population.

    Parameters
    ----------
    plan:
        The fault schedule (compiled against ``n_peers`` on entry).
    n_peers:
        Population size the plan applies to.
    policy:
        Timeout/retry policy used by the static stack's ``contact``
        model; defaults to :class:`RetryPolicy`'s defaults.

    The injector's own randomness (loss coin-flips, timeout jitter)
    comes from a ``repro.util.rng`` stream derived from the plan seed,
    so two injectors built from the same plan replay identically.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_peers: int,
        *,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.state = FaultState(n_peers)
        self.events: tuple[FaultEvent, ...] = plan.events(n_peers)
        self._next = 0
        self.now_ms = 0.0
        self.rng = RngFactory(plan.seed).get("fault-injector")

    # ------------------------------------------------------------------
    # timeline (static stack)
    # ------------------------------------------------------------------
    @property
    def next_event_ms(self) -> float:
        """When the first event not yet applied is due; ``inf`` once all have fired."""
        return self.events[self._next].time_ms if self._next < len(self.events) else np.inf

    def advance_to(self, t_ms: float) -> list[FaultEvent]:
        """Apply every event with ``time_ms <= t_ms``; returns them."""
        require(t_ms >= self.now_ms, "the fault clock cannot run backwards")
        fired: list[FaultEvent] = []
        while self._next < len(self.events) and self.events[self._next].time_ms <= t_ms:
            ev = self.events[self._next]
            self._apply(ev)
            fired.append(ev)
            self._next += 1
        self.now_ms = t_ms
        return fired

    def _apply(self, ev: FaultEvent) -> None:
        state = self.state
        if ev.kind == "crash":
            for p in ev.peers:
                state.dead[p] = True
        elif ev.kind == "revive":
            for p in ev.peers:
                state.dead[p] = False
        elif ev.kind == "loss_start":
            state.loss_rate = ev.rate
        elif ev.kind == "loss_end":
            state.loss_rate = 0.0
        else:  # pragma: no cover - plan compilation guarantees known kinds
            raise ValueError(f"unknown fault event kind {ev.kind!r}")

    # ------------------------------------------------------------------
    # static-stack contact model
    # ------------------------------------------------------------------
    def contact(self, src: int, dst: int, ctx: LossyContext) -> bool:
        """Model ``src`` trying to reach ``dst`` under current faults.

        Each failed attempt (dead target, or a live target
        whose request or reply was lost) charges one backed-off timeout
        to ``ctx``.  Returns whether any attempt got through.  With no
        active faults this returns True without consuming randomness, so
        a fault-free ``route_lossy`` is penalty-free and deterministic.
        """
        reachable = self.state.reachable(src, dst)
        loss = self.state.loss_rate
        if reachable and loss == 0.0:
            return True
        for attempt in range(self.policy.max_attempts):
            # A message and its reply each cross the network once.
            if reachable and self.rng.random() >= loss and self.rng.random() >= loss:
                return True
            ctx.timeouts += 1
            ctx.retry_latency_ms += self.policy.attempt_timeout_ms(attempt, self.rng)
        return False

    # ------------------------------------------------------------------
    # discrete-event stack
    # ------------------------------------------------------------------
    def install_sim(self, sim: "Simulator", net: "SimNetwork") -> None:
        """Schedule the plan's events on a simulator, relative to now.

        Crashes call :meth:`SimNode.fail` on registered nodes, revivals
        :meth:`SimNode.recover`, and loss bursts set
        :attr:`SimNetwork.loss_rate` (restoring the baseline afterwards).
        """
        baseline_loss = net.loss_rate

        def _fire(ev: FaultEvent) -> None:
            self._apply(ev)
            if ev.kind in ("crash", "revive"):
                for p in ev.peers:
                    if p in net:
                        node = net.node(p)
                        if ev.kind == "crash" and node.alive:
                            node.fail()
                        elif ev.kind == "revive" and not node.alive:
                            node.recover()
            elif ev.kind == "loss_start":
                net.loss_rate = ev.rate
            elif ev.kind == "loss_end":
                net.loss_rate = baseline_loss

        for ev in self.events:
            sim.schedule(ev.time_ms, _fire, ev)
        # install_sim consumed the schedule; advance_to must not re-apply.
        self._next = len(self.events)
