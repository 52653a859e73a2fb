"""Churn schedules: timed join/leave/fail events.

Used by the protocol-stack experiments: sessions are exponential (the
standard Poisson-churn model) or Weibull (the heavy-tailed model
measurement studies report for real peer session times), producing an
event list the simulator replays.  Peers are drawn from a fixed
universe so the same schedule can drive both the protocol stack and
the static stack's offline join/leave equivalents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = ["ChurnEvent", "ChurnSchedule", "generate_churn"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change."""

    time_ms: float
    action: str  # "join" | "leave" | "fail"
    peer: int


@dataclass(frozen=True)
class ChurnSchedule:
    """A time-ordered list of churn events over a peer universe."""

    events: tuple[ChurnEvent, ...]
    initial_peers: tuple[int, ...]
    universe: int

    def __len__(self) -> int:
        return len(self.events)


def generate_churn(
    *,
    universe: int,
    initial: int,
    duration_ms: float,
    mean_session_ms: float,
    mean_offline_ms: float,
    fail_fraction: float = 0.5,
    seed: int | np.random.Generator = 0,
    session_model: str = "exponential",
    weibull_shape: float = 0.5,
) -> ChurnSchedule:
    """Generate seeded churn over a fixed peer universe.

    Peers alternate online sessions (``mean_session_ms``) and offline
    periods (``mean_offline_ms``).  A departing peer crashes ("fail")
    with probability ``fail_fraction`` and leaves gracefully otherwise.
    The first ``initial`` peers start online at time 0.

    ``session_model`` picks the *online*-session distribution:
    ``"exponential"`` (memoryless Poisson churn, the default) or
    ``"weibull"`` with shape ``weibull_shape`` — shapes below 1 give
    the heavy-tailed mix measurement studies observe (many short-lived
    peers, a few very long-lived ones).  The Weibull scale is derived
    from the mean (``scale = mean / Γ(1 + 1/shape)``), so both models
    share the same mean session time and are directly comparable.
    Offline periods stay exponential in both models.
    """
    require(universe >= 2, "universe must be >= 2")
    require(1 <= initial <= universe, "initial must be in [1, universe]")
    require(duration_ms > 0, "duration must be positive")
    require(mean_session_ms > 0 and mean_offline_ms > 0, "means must be positive")
    require(0.0 <= fail_fraction <= 1.0, "fail_fraction in [0, 1]")
    require(
        session_model in ("exponential", "weibull"),
        f"unknown session_model {session_model!r}",
    )
    require(weibull_shape > 0.0, "weibull_shape must be > 0")
    rng = make_rng(seed)
    weibull_scale = mean_session_ms / math.gamma(1.0 + 1.0 / weibull_shape)

    def session_length() -> float:
        if session_model == "weibull":
            return float(rng.weibull(weibull_shape)) * weibull_scale
        return float(rng.exponential(mean_session_ms))

    events: list[ChurnEvent] = []
    for peer in range(universe):
        online = peer < initial
        t = 0.0
        while True:
            t += session_length() if online else float(rng.exponential(mean_offline_ms))
            if t >= duration_ms:
                break
            if online:
                action = "fail" if rng.random() < fail_fraction else "leave"
                events.append(ChurnEvent(time_ms=t, action=action, peer=peer))
            else:
                events.append(ChurnEvent(time_ms=t, action="join", peer=peer))
            online = not online

    events.sort(key=lambda e: (e.time_ms, e.peer))
    return ChurnSchedule(
        events=tuple(events),
        initial_peers=tuple(range(initial)),
        universe=universe,
    )
