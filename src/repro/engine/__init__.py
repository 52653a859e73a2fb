"""Vectorized batch routing engine: frontier-stepped lookups over numpy.

The scalar routing stacks (``repro.dht.chord``, ``repro.core.hieras``)
route one lookup at a time with per-hop ``bisect`` calls and Python int
arithmetic.  This package advances *all in-flight lookups
simultaneously*, one numpy step per routing hop — the level-synchronous
frontier trick of vectorized graph engines applied to Chord's greedy
rule.  Chord's O(log N) hop bound means the frontier loop terminates in
~log₂N steps regardless of batch size, so per-request interpreter
overhead disappears from sweep and benchmark wall-clock.

The contract is **bit-identical semantics**: :func:`batch_route`
produces the same owners, paths, hop counts and latencies (exact float
equality) as calling ``network.route()`` per request — enforced by the
property tests in ``tests/test_engine.py`` and relied on by the
experiment layer, which routes everything through :func:`batch_route`,
traced or not (see :func:`supports_batch`).
"""

from repro.engine.batch import (
    batch_route,
    batch_route_chord,
    replay_spans,
    scalar_batch_route,
    supports_batch,
)
from repro.engine.kernel import route_cohort, route_layer
from repro.engine.result import BatchRouteResult
from repro.engine.stream import StreamStats, stream_batch_route

__all__ = [
    "BatchRouteResult",
    "StreamStats",
    "batch_route",
    "batch_route_chord",
    "replay_spans",
    "route_cohort",
    "route_layer",
    "scalar_batch_route",
    "stream_batch_route",
    "supports_batch",
]
