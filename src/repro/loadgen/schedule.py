"""Deterministic open-loop arrival schedules.

An open-loop generator decides arrival times *independently of
completions* — the service never gets breathing room by being slow,
which is what makes saturation observable (closed-loop generators
self-throttle and hide the knee).  A :class:`Schedule` describes an
offered-rate curve ``r(t)`` over a finite window; arrival times come
from the standard time-rescaling construction: draw a seeded unit-rate
Poisson process, then map it through the inverse of the cumulative
rate ``Λ(t) = ∫ r``.  Everything is a pure function of
``(schedule, seed)``: the same inputs reproduce the same arrival
array byte for byte, on any machine.

Two shapes cover the serving experiments:

* ``constant_rate`` — the saturation-sweep workhorse;
* ``flash_crowd`` — a rectangular ``spike_factor×`` burst dropped into
  an otherwise constant stream (the admission-control stress test).

``Λ`` is integrated by the midpoint rule over a knot grid that
includes every rate discontinuity, so it is *exact* for both shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = [
    "Schedule",
    "constant_rate",
    "flash_crowd",
]

_KINDS = ("constant", "flash")


@dataclass(frozen=True)
class Schedule:
    """An offered-rate curve over ``[0, duration_ms)``.

    ``rate_per_s`` is the base rate; the flash-crowd fields modulate
    it.  Use the module-level constructors rather than building one by
    hand — they validate the shape-relevant fields.
    """

    kind: str
    duration_ms: float
    rate_per_s: float
    #: Flash crowd: burst start / length / rate multiplier.
    spike_at_ms: float = 0.0
    spike_duration_ms: float = 0.0
    spike_factor: float = 1.0

    def __post_init__(self) -> None:
        require(self.kind in _KINDS, f"unknown schedule kind {self.kind!r}")
        require(self.duration_ms > 0, f"duration_ms must be > 0, got {self.duration_ms}")
        require(self.rate_per_s >= 0, f"rate_per_s must be >= 0, got {self.rate_per_s}")

    # ------------------------------------------------------------------
    def rates_at(self, t_ms: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """Offered rate (requests/second) at each time in ``t_ms``."""
        t = np.asarray(t_ms, dtype=np.float64)
        if self.kind == "constant":
            r = np.full(t.shape, self.rate_per_s)
        else:  # flash
            in_spike = (t >= self.spike_at_ms) & (t < self.spike_at_ms + self.spike_duration_ms)
            r = np.where(in_spike, self.rate_per_s * self.spike_factor, self.rate_per_s)
        return np.maximum(np.asarray(r, dtype=np.float64), 0.0)

    def _knots(self) -> npt.NDArray[np.float64]:
        """Integration grid: every rate discontinuity is a knot."""
        pts = [0.0, self.duration_ms]
        if self.kind == "flash":
            for edge in (self.spike_at_ms, self.spike_at_ms + self.spike_duration_ms):
                if 0.0 < edge < self.duration_ms:
                    pts.append(edge)
        return np.unique(np.asarray(sorted(pts), dtype=np.float64))

    def cumulative(self) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """``(t_knots, Λ(t_knots))`` — the integrated rate curve.

        Midpoint-rule integration per cell, exact for piecewise-constant
        rates.  ``Λ`` is in expected *arrivals* (rate is per second,
        time per millisecond — the 1000 factor is applied here).
        """
        t = self._knots()
        dt = np.diff(t)
        mid_rates = self.rates_at((t[:-1] + t[1:]) / 2.0)
        lam = np.concatenate([[0.0], np.cumsum(mid_rates * dt / 1000.0)])
        return t, lam

    # ------------------------------------------------------------------
    def arrival_times(self, seed: int | np.random.Generator = 0) -> npt.NDArray[np.float64]:
        """Arrival instants (ms, sorted) over ``[0, duration_ms)``.

        Draws a seeded unit-rate Poisson process and rescales it
        through ``Λ⁻¹`` — an inhomogeneous Poisson process with
        intensity ``r(t)``, a byte-reproducible function of
        ``(schedule, seed)``.
        """
        t_knots, lam = self.cumulative()
        total = float(lam[-1])
        if total <= 0.0:
            return np.empty(0, dtype=np.float64)
        rng = make_rng(seed)
        gaps: list[npt.NDArray[np.float64]] = []
        running = 0.0
        # Draw in chunks until the unit-rate process passes Λ(T).
        chunk = int(total + 10.0 * math.sqrt(total) + 16.0)
        while running <= total:
            draw = rng.exponential(1.0, size=chunk)
            gaps.append(draw)
            running += float(draw.sum())
        unit = np.cumsum(np.concatenate(gaps))
        return np.interp(unit[unit <= total], lam, t_knots)


def constant_rate(rate_per_s: float, duration_ms: float) -> Schedule:
    """A flat offered-load window (the saturation-sweep cell shape)."""
    return Schedule(kind="constant", duration_ms=duration_ms, rate_per_s=rate_per_s)


def flash_crowd(
    base_rate_per_s: float,
    duration_ms: float,
    *,
    spike_at_ms: float,
    spike_duration_ms: float,
    spike_factor: float = 8.0,
) -> Schedule:
    """A rectangular burst: ``spike_factor×`` base inside the window."""
    require(spike_at_ms >= 0, f"spike_at_ms must be >= 0, got {spike_at_ms}")
    require(spike_duration_ms > 0, f"spike_duration_ms must be > 0, got {spike_duration_ms}")
    require(spike_factor >= 1, f"spike_factor must be >= 1, got {spike_factor}")
    return Schedule(
        kind="flash", duration_ms=duration_ms, rate_per_s=base_rate_per_s,
        spike_at_ms=spike_at_ms, spike_duration_ms=spike_duration_ms,
        spike_factor=spike_factor,
    )
