"""Lookup tracing: one fold of finished lookups into a registry.

Tracing makes the paper's core claim (*most hops resolve inside
low-latency lower rings*, §4.3) observable: every traced lookup lands
in a :class:`~repro.metrics.registry.MetricsRegistry` as hop and
latency histograms plus one counter per ring layer.  A single lookup's
route, hop by hop, is ``explain_route``'s narration, not a record kept
here.

:class:`SpanRecorder` is the glue the routing stacks talk to, and
:meth:`SpanRecorder.fold` its one accumulation path: a batch folds its
arrays in one call (:meth:`SpanRecorder.record_batch`), a scalar route
folds itself as a one-lane batch.  Collection is **off by default** —
networks carry ``metrics = None`` and ``route()`` calls the fold only
after a not-None check, so the untraced hot path pays one attribute
load.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.metrics.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from repro.dht.chord import _PlanLayer
    from repro.engine.result import BatchRouteResult

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Folds finished lookups into a registry.

    Registry names are scoped by the network label, so one recorder can
    serve several stacks at once::

        chord.lookups, chord.hops, chord.latency_ms, ...
        hieras.lookups, hieras.hops, hieras.hops.layer2, ...
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def fold(
        self,
        label: str,
        hops: npt.ArrayLike,
        latency_ms: Iterable[float],
        hops_per_layer: npt.ArrayLike,
        layers: Iterable[int],
        *,
        failed: int = 0,
        timeouts: int = 0,
    ) -> None:
        """Account a run of lookups, one lane each.

        ``hops`` and ``latency_ms`` hold each lane's own values;
        ``hops_per_layer`` is ``(lanes, columns)`` and ``layers`` names
        the ring layer of each column (1 = the global ring), so a lookup
        that died before its last layer books its hops on the layers it
        walked.  ``failed`` and ``timeouts`` are the lanes' totals.  The
        per-layer, failure and timeout counters are created only where a
        lane adds to them, so how lookups are cut into calls never shows
        in ``registry.snapshot()``.
        """
        hops = np.asarray(hops)
        if hops.size == 0:
            return
        reg = self.registry
        reg.inc(f"{label}.lookups", hops.size)
        if failed:
            reg.inc(f"{label}.lookups_failed", failed)
        if timeouts:
            reg.inc(f"{label}.timeouts", timeouts)
        reg.histogram(f"{label}.hops").record_many(hops)
        reg.histogram(f"{label}.latency_ms").record_many(latency_ms)
        reg.inc(f"{label}.total_hops", int(hops.sum()))
        low = 0
        for layer, n in zip(layers, np.sum(hops_per_layer, axis=0).tolist()):
            if n:
                reg.inc(f"{label}.hops.layer{layer}", n)
                low += n if layer >= 2 else 0
        if low:
            reg.inc(f"{label}.low_layer_hops", low)

    def record_batch(
        self, label: str, result: "BatchRouteResult", plan: "Sequence[_PlanLayer]"
    ) -> None:
        """Account every lane of a batch routed over ``plan``'s network."""
        self.fold(
            label, result.hops, result.latency_ms, result.hops_per_layer,
            [row.layer for row in plan],
        )

    # ------------------------------------------------------------------
    def low_layer_hop_share(self, label: str) -> float:
        """Aggregate lower-ring hop share for one network label."""
        total = self.registry.counter(f"{label}.total_hops").value
        low = self.registry.counter(f"{label}.low_layer_hops").value
        return low / total if total else 0.0
