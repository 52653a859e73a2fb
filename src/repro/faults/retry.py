"""Timeout/retry policy shared by both failure-aware stacks.

A node that forwards a lookup to a dead or unreachable peer learns
nothing until its request times out; it then retries (the same hop or a
fallback route entry) with exponentially backed-off timeouts.  The
policy quantifies that cost so the static stack can charge realistic
latency penalties without simulating individual messages, and the
protocol stack can re-issue lookups with the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_int

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a node waits, retries, and falls back when a hop fails.

    Attributes
    ----------
    timeout_ms:
        Wait before the first attempt at a hop is declared lost.
    max_retries:
        Additional attempts after the first (so a hop costs up to
        ``max_retries + 1`` timeouts before the node gives up on that
        candidate and falls back to the next one).
    backoff:
        Multiplier applied to the timeout on each successive attempt.
    jitter:
        Fractional uniform jitter applied to each timeout (0.1 ⇒ each
        penalty is scaled by a factor in ``[0.9, 1.1]``).  Jitter draws
        come from the injector's ``repro.util.rng`` stream, keeping
        penalised latencies deterministic per seed.
    successor_fallback:
        Length of the per-ring successor list consulted when fingers
        fail — the §3.3 failure-recovery state ("a node must keep a
        successor-list of its r nearest successors in each layer").
        This is recovery state, independent of the routing-acceleration
        ``successor_list_r`` the networks use on the happy path.
    """

    timeout_ms: float = 500.0
    max_retries: int = 2
    backoff: float = 2.0
    jitter: float = 0.1
    successor_fallback: int = 16

    def __post_init__(self) -> None:
        require(self.timeout_ms > 0, "timeout_ms must be > 0")
        require_int(self.max_retries, 0, name="max_retries")
        require(self.backoff >= 1.0, "backoff must be >= 1")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")
        require_int(self.successor_fallback, 0, name="successor_fallback")

    @property
    def max_attempts(self) -> int:
        """Total attempts per contacted peer (first try + retries)."""
        return self.max_retries + 1

    def attempt_timeout_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Timeout paid for failed ``attempt`` (0-based), with jitter."""
        penalty = self.timeout_ms * self.backoff**attempt
        if self.jitter > 0.0:
            penalty *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return penalty
