"""Span sinks: where finished :class:`~repro.metrics.spans.LookupSpan`
records go.

Three shapes cover every consumer in the repo:

* :class:`MemorySink` — keep the spans (tests, interactive debugging);
* :class:`JsonlSink` — one JSON object per line on disk (experiment
  artifacts; read back with :func:`read_jsonl`);
* :class:`SummarySink` — aggregate-only (a private registry of hop and
  latency histograms plus per-layer counters), for workloads too large
  to retain individual spans.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections.abc import Sequence
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import LookupSpan, SpanRecorder, batch_spans

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.dht.chord import _PlanLayer
    from repro.engine.result import BatchRouteResult

__all__ = ["SpanSink", "MemorySink", "JsonlSink", "SummarySink", "read_jsonl"]


class SpanSink(ABC):
    """Receiver of finished lookup spans."""

    #: False on a sink that takes a batch without the spans themselves;
    #: the batch engine then routes without materializing paths.
    keeps_spans: bool = True

    @abstractmethod
    def emit(self, span: LookupSpan) -> None:
        """Accept one span."""

    def emit_batch(
        self, label: str, result: "BatchRouteResult", plan: "Sequence[_PlanLayer]"
    ) -> None:
        """Accept every lane of a batch (default: build the spans, emit each)."""
        for span in batch_spans(label, result, plan):
            self.emit(span)

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""
        return


class MemorySink(SpanSink):
    """Keeps every span in a list."""

    def __init__(self) -> None:
        self.spans: list[LookupSpan] = []

    def emit(self, span: LookupSpan) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        self.spans.clear()


class JsonlSink(SpanSink):
    """Appends one sorted-key JSON object per span to a file.

    The file opens lazily on the first span, so constructing the sink
    (e.g. inside config plumbing) never touches the filesystem.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self.emitted = 0

    def emit(self, span: LookupSpan) -> None:
        if self._fh is None:
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(span.to_dict(), sort_keys=True))
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: str | Path) -> list[LookupSpan]:
    """Load spans written by :class:`JsonlSink` (inverse operation)."""
    spans: list[LookupSpan] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(LookupSpan.from_dict(json.loads(line)))
    return spans


class SummarySink(SpanSink):
    """Aggregates spans without retaining them.

    Internally just a :class:`SpanRecorder` over a private registry —
    the summary dict is the registry's view of the span stream, which
    keeps the aggregate path and the streaming path numerically
    identical.
    """

    keeps_spans = False

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._recorder = SpanRecorder(self.registry)

    def emit(self, span: LookupSpan) -> None:
        self._recorder.record(span)

    def emit_batch(
        self, label: str, result: "BatchRouteResult", plan: "Sequence[_PlanLayer]"
    ) -> None:
        self._recorder.record_batch(label, result, plan)

    def _count(self, name: str) -> int:
        counter = self.registry.counters.get(name)
        return counter.value if counter is not None else 0

    def summary(self, label: str) -> dict[str, object]:
        """Aggregate view of one network label's spans."""
        reg = self.registry
        total = self._count(f"{label}.total_hops")
        low = self._count(f"{label}.low_layer_hops")
        hops_by_layer = {
            name.rsplit("layer", 1)[1]: c.value
            for name, c in sorted(reg.counters.items())
            if name.startswith(f"{label}.hops.layer")
        }
        return {
            "lookups": self._count(f"{label}.lookups"),
            "lookups_failed": self._count(f"{label}.lookups_failed"),
            "timeouts": self._count(f"{label}.timeouts"),
            "hops": reg.histogram(f"{label}.hops").summary(),
            "latency_ms": reg.histogram(f"{label}.latency_ms").summary(),
            "hops_by_layer": hops_by_layer,
            "low_layer_hop_share": low / total if total else 0.0,
        }
