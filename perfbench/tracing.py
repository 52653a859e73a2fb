"""In-memory spans around calls into the library, and timing summaries.

The benchmark times every call into a layer's public function from
outside.  With tracing off the duration is all that is kept; with
tracing on each call also leaves a span (name, start, end, the span
that caused it), held in memory and written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")

#: Percentiles a timing may report besides its median.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tracer:
    """Times calls; records a span per call while ``enabled``."""

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    def _record(self, name: str, start: float, end: float, attrs: dict[str, Any]) -> None:
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start_ns": int(start * 1e9),
                "end_ns": int(end * 1e9),
                **attrs,
            }
        )

    def call(self, name: str, fn: Callable[..., T], *args: Any, **attrs: Any) -> tuple[T, float]:
        """Run ``fn(*args)``; returns its result and its wall seconds."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        if self.enabled:
            self._record(name, start, end, attrs)
        return result, end - start

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """A parent span: calls made inside it name it as their cause."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        self._record(name, start, start, attrs)
        span = self.spans[-1]
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end_ns"] = int(time.perf_counter() * 1e9)

    def seconds(self, name: str) -> list[float]:
        """Durations of every recorded span called ``name``."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name
        ]

    def write_jsonl(self, path: Path) -> None:
        """Write the spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def fast(values: list[float]) -> float:
    """The fast decile (10th percentile) of a non-empty sample: what a
    call takes while the host leaves it alone.  A neighbour on this
    shared box slows a share of the calls for seconds to minutes and
    speeds none up; over such a spell the median of a fixed 9 ms loop
    rose 14 % while its fast decile stayed within 2 %."""
    return percentile(values, 10.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0–100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def timing_summary(samples_s: Iterable[float], what: str) -> dict[str, Any]:
    """Call durations (seconds in, ms out) as p50, sample count, and the
    highest percentile with at least ten samples beyond it (omitted
    when the sample is too small for any).  ``what`` names one call."""
    samples_ms = [s * 1e3 for s in samples_s]
    out: dict[str, Any] = {"what": what, "n": len(samples_ms), "p50": median(samples_ms)}
    for p in _TAILS:
        if len(samples_ms) * (1.0 - p / 100.0) >= 10.0:
            out["tail"] = {"p": p, "value": percentile(samples_ms, p)}
            break
    return out
