"""Span sinks: where finished :class:`~repro.metrics.spans.LookupSpan`
records go.

Two shapes cover every consumer in the repo:

* :class:`MemorySink` — keep the spans (tests, interactive debugging);
* :class:`JsonlSink` — one JSON object per line on disk (experiment
  artifacts; read back with :func:`read_jsonl`).

Aggregates (hop and latency histograms, per-layer counters) are the
recorder's registry; a sink is only for the spans themselves.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections.abc import Sequence
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.metrics.spans import LookupSpan, batch_spans

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.dht.chord import _PlanLayer
    from repro.engine.result import BatchRouteResult

__all__ = ["SpanSink", "MemorySink", "JsonlSink", "read_jsonl"]


class SpanSink(ABC):
    """Receiver of finished lookup spans."""

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
