"""Streaming metric primitives: counters, gauges, histograms.

The registry is the single accumulation point of the observability
subsystem (DESIGN.md §7): traced lookups and served requests land here.
The scalar record path is pure Python — no numpy — and the bulk
:meth:`Histogram.record_many` is numpy and leaves exactly the state the
same values recorded one by one would.

Histograms are **deterministic log-bucketed streaming** estimators:
values are counted in geometric buckets ``[base**i, base**(i+1))``, so
state is O(log(max/min)) regardless of sample count, and quantiles are
reproducible functions of the bucket counts alone.  Serialization is
stable: :meth:`Histogram.to_dict` sorts bucket keys, so identical
streams produce byte-identical JSON.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.util.validation import require

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default geometric bucket growth factor: ~5% relative quantile error,
#: ~160 buckets covering 1e-3 .. 1e7 — plenty for hop counts (units)
#: and latencies (ms) alike.
DEFAULT_BASE = 1.1

_BAD_VALUE = "histogram values must be finite and >= 0, got {}"


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the count."""
        require(n >= 0, f"counter increment must be >= 0, got {n}")
        self.value += n


class Gauge:
    """A named last-value-wins measurement (queue depth, clock, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Deterministic log-bucketed streaming histogram.

    Records finite non-negative values; zeros are counted apart (a log
    bucket cannot hold them); negatives, NaN and infinities are rejected
    before anything is counted.  Exact ``count``,
    ``total``, ``min`` and ``max`` are kept alongside the buckets, so
    the mean is exact and quantiles are clamped to the observed range.
    """

    __slots__ = ("name", "base", "_log_base", "count", "total", "zero_count",
                 "min", "max", "buckets")

    def __init__(self, name: str = "", *, base: float = DEFAULT_BASE) -> None:
        require(base > 1.0, f"histogram base must be > 1, got {base}")
        self.name = name
        self.base = float(base)
        self._log_base = math.log(self.base)
        self.count = 0
        self.total = 0.0
        self.zero_count = 0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> count; bucket ``i`` covers [base**i, base**(i+1)).
        self.buckets: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        return math.floor(math.log(value) / self._log_base)

    def record(self, value: float) -> None:
        """Record one observation (finite, ``value >= 0``)."""
        value = float(value)
        require(0.0 <= value < math.inf, _BAD_VALUE.format(value))
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zero_count += 1
            return
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def record_many(self, values: Iterable[float]) -> None:
        """Record many observations, all or none: bit for bit the state
        :meth:`record` on each value in order leaves.

        ``total`` accumulates left to right from the current total (not
        pairwise ``np.sum``); values within ~1e-9 of a bucket edge, where
        ``np.log`` and ``math.log`` may disagree, go through :meth:`_index`.
        """
        arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.float64)
        if arr.size == 0:
            return
        ok = (arr >= 0.0) & (arr < math.inf)
        require(bool(ok.all()), _BAD_VALUE.format(float(arr[np.argmin(ok)])))
        self.count += arr.size
        self.total = float(np.add.accumulate(np.concatenate(([self.total], arr)))[-1])
        # argmin/argmax: the first of equal extremes, like the scalar's
        # strict comparisons (it decides the sign of a zero).
        self.min = min(self.min, float(arr[np.argmin(arr)]))
        self.max = max(self.max, float(arr[np.argmax(arr)]))
        positive = arr[arr > 0.0]
        self.zero_count += arr.size - positive.size
        quotient = np.log(positive) / self._log_base
        index = np.floor(quotient).astype(np.int64)
        edge = np.abs(quotient - np.rint(quotient)) <= 1e-9 * np.maximum(1.0, np.abs(quotient))
        if edge.any():
            near, inverse = np.unique(positive[edge], return_inverse=True)
            index[edge] = np.array([self._index(v) for v in near.tolist()], dtype=np.int64)[inverse]
        low = int(index.min(initial=0))  # bincount counts from 0; a bucket index may be negative
        counts = np.bincount(index - low)
        found = counts.nonzero()[0]
        for idx, n in zip((found + low).tolist(), counts[found].tolist()):
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact mean of all recorded values (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate (nearest-rank over buckets).

        The representative value of a bucket is its geometric midpoint
        ``base**(i + 0.5)``, clamped to the exact observed ``[min, max]``
        so the tails never overshoot reality.  Returns 0 when empty.
        """
        require(0.0 <= q <= 1.0, f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cum = self.zero_count
        if target <= cum:
            return 0.0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if target <= cum:
                rep = self.base ** (idx + 0.5)
                return min(max(rep, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts are consistent)

    def summary(self) -> dict[str, float]:
        """Compact quantile summary (the per-metric report row)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Stable serialization (sorted bucket keys; JSON-safe)."""
        return {
            "base": self.base,
            "count": self.count,
            "total": self.total,
            "zero_count": self.zero_count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named metrics, created on first use.

    One registry per measurement scope (an experiment run, a benchmark
    phase, a simulation).  All accessors are create-on-first-use so
    instrumentation sites never need set-up calls.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, *, base: float = DEFAULT_BASE) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, base=base)
        return h

    # convenience forms used by instrumentation sites ------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def snapshot(self) -> dict[str, object]:
        """Full, stable, JSON-safe dump of every metric."""
        return {
            "counters": {n: self.counters[n].value for n in sorted(self.counters)},
            "gauges": {n: self.gauges[n].value for n in sorted(self.gauges)},
            "histograms": {n: self.histograms[n].to_dict() for n in sorted(self.histograms)},
        }
