"""The layered batch walker for the ring stacks, plus the dispatch point.

``batch_route_chord`` walks a network's layer plan — the §3.2 bottom-up
procedure, of which flat Chord is the one-layer case — with one greedy
frontier per layer: every lane enters the layer's one kernel call at its
current peer's slot in that peer's ring, all rings of the layer advance
together, survivors go on to the next layer, and the global ring ends
exactly like the stack's scalar ``route``.  A call therefore makes as
many kernel calls as the plan has layers, however many rings they hold.

``batch_route`` is the experiment-facing entry point and the only place
that decides batch vs scalar: the vectorized kernels when the network
supports them, per-request scalar ``route()`` calls otherwise, the
identical :class:`~repro.engine.result.BatchRouteResult` either way.
With tracing attached the kernels still run and the result's arrays go
to the recorder in one ``record_batch`` call; paths are materialized
only when the caller asks for them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, TypeGuard

import numpy as np
import numpy.typing as npt

from repro.core.hieras import HierasNetwork
from repro.dht.base import DHTNetwork
from repro.dht.chord import ChordNetwork
from repro.engine.kernel import route_layer
from repro.engine.result import BatchRouteResult, hop_sums
from repro.topology.base import LatencyModel
from repro.util.validation import require

__all__ = [
    "batch_route",
    "batch_route_chord",
    "replay_spans",
    "scalar_batch_route",
    "supports_batch",
]

#: Hop pairs one ``LatencyModel.pairs`` call prices at most, unless a
#: single row holds more.  Per pair, a longer call costs more once its
#: temporaries outgrow the cache: at N=4 096, 2 048- and 4 096-lane
#: batches priced 6-10 % faster under 4 096 than under 8 192.
_GROUP_PAIRS = 4096


class _HopLog:
    """The walk's hops, hop-major: peers while it runs, delays after.

    Row ``h`` of the ``(cap, lanes)`` buffer holds the peer each lane
    reached on its hop ``h`` (zero past the lane's hop count); ``record``
    writes one row entry per lane that moved and touches no latency
    model.  Once the walk ends, ``priced`` overwrites each peer with the
    delay of the hop that reached it, in bulk ``LatencyModel.pairs``
    calls, so the ring arrays and the latency tables are not in cache at
    once.  The buffer starts at ``cap`` rows and doubles beyond.
    """

    def __init__(self, sources: npt.NDArray[np.int64], *, cap: int) -> None:
        self.sources = sources
        self.hop_count = np.zeros(len(sources), dtype=np.int64)
        self.peers = np.zeros((cap, len(sources)), dtype=np.int64)
        # ``record`` calls so far: a hop count grows by at most one per
        # call, so none exceeds it and no row past the buffer is written
        # before it reaches ``cap``.
        self._records = 0

    def record(self, lanes: npt.NDArray[np.int64], reached: npt.NDArray[np.int64]) -> None:
        """Append one hop for ``lanes``, each arriving at ``reached``."""
        rows = self.hop_count[lanes]
        if self._records >= len(self.peers):
            top, cap = int(rows.max()), len(self.peers)
            if top >= cap:
                while cap <= top:
                    cap *= 2
                grown = np.zeros((cap, len(self.sources)), dtype=np.int64)
                grown[: len(self.peers)] = self.peers
                self.peers = grown
        self._records += 1
        self.peers[rows, lanes] = reached
        self.hop_count[lanes] = rows + 1

    def paths(self) -> npt.NDArray[np.int64]:
        """``(lanes, cap + 1)`` visited peers, ``-1``-padded; before ``priced``."""
        cap = len(self.peers)
        out = np.empty((len(self.sources), cap + 1), dtype=np.int64)
        out[:, 0] = self.sources
        out[:, 1:] = np.where(np.arange(cap)[:, None] < self.hop_count, self.peers, -1).T
        return out

    def priced(self, latency: LatencyModel) -> npt.NDArray[np.float64]:
        """The buffer, in place, as hop delays (``0.0`` past each lane's hops).

        One ``pairs`` call per group of consecutive rows: a group takes
        rows while their hops total at most ``_GROUP_PAIRS``, and always
        at least one row.  A call's fixed cost (~10 numpy dispatches) is
        paid per group, not per row, and a narrow batch is priced in one.
        """
        delays = self.peers.view(np.float64)
        # Longest walks first: the lanes taking a hop h are a prefix of
        # the order, each at the same place as in the row before.
        order = np.argsort(self.hop_count)[::-1]
        walking = np.bincount(self.hop_count)[::-1].cumsum()[::-1].tolist()
        prev = self.sources[order]
        lo, top = 0, len(walking) - 1  # row h - 1 holds hop h; rows lo.. are unpriced
        while lo < top:
            hi, size = lo + 1, walking[lo + 1]
            while hi < top and size + walking[hi + 1] <= _GROUP_PAIRS:
                hi += 1
                size += walking[hi]
            widths = walking[lo + 1 : hi + 1]
            reached = [self.peers[h, order[:w]] for h, w in zip(range(lo, hi), widths)]
            came = [prev[: widths[0]], *(r[:w] for r, w in zip(reached, widths[1:]))]
            us, vs = (np.concatenate(p) if len(p) > 1 else p[0] for p in (came, reached))
            hop_delays = latency.pairs(us, vs)
            for h, w, end in zip(range(lo, hi), widths, accumulate(widths)):
                delays[h, order[:w]] = hop_delays[end - w : end]
            prev = reached[-1]
            lo = hi
        return delays


def supports_batch(network: DHTNetwork) -> TypeGuard[ChordNetwork]:
    """Whether ``batch_route`` may use the vectorized kernels.

    True only for the exact trace-driven classes: a subclass may
    override ``route`` semantics, so it takes the scalar fallback.
    """
    return type(network) in (ChordNetwork, HierasNetwork)


def _lanes(values: object, name: str, dtype: type[np.generic]) -> npt.NDArray[Any]:
    """``values`` as a contiguous 1-D ``dtype`` array, one lane per element.

    Integers only and at most one dimension: a float would be truncated
    to a peer it does not name, and a nested list dies deep in the
    walker.  numpy types a bare ``[]`` as float64, so an empty request
    passes whatever its dtype — and Python ints on both sides of
    ``2**63`` too, so a non-integer dtype is let through when every
    element is an ``int`` (converted exactly, or numpy's OverflowError).
    """
    arr = np.asarray(values, dtype=None)  # numpy's own reading of them is what is checked
    require(arr.ndim <= 1, f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        require(
            all(type(v) is int for v in np.asarray(values, dtype=object).flat),
            f"{name} must be integers, got dtype {arr.dtype}",
        )
        arr = np.asarray(values, dtype=dtype)
    return np.ascontiguousarray(arr, dtype=dtype)  # a scalar becomes one lane


def _request_arrays(
    network: ChordNetwork, sources: object, keys: object
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.uint64]]:
    src = _lanes(sources, "sources", np.int64)
    wrapped = _lanes(keys, "keys", np.uint64) & np.uint64(network.space.size - 1)
    require(len(src) == len(wrapped), "sources and keys must align")
    ok = (src >= 0) & (src < len(network._alive))
    if not (ok.all() and network._alive[src].all()):
        # Raise the scalar route's message for the first offending lane.
        ok[ok] = network._alive[src[ok]]
        network._require_source(int(src[int(np.argmin(ok))]))
    return src, wrapped


def batch_route_chord(
    net: ChordNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Vectorized equivalent of ``net.route`` per lane, on either ring stack.

    The one layered batch walker.  One kernel call per layer of the
    network's plan, lowest first: at a layer of many rings each lane
    starts at its current peer's slot in the layer view and the
    predecessor-stop kernel advances all the rings in one frontier; the
    global ring ends the way the stack's scalar ``route`` does — greedy
    to the owner on flat Chord, predecessor-stop plus the explicit §3.2
    owner hop on HIERAS.  Hop sequences and per-layer counts are
    bit-identical to the scalar route.

    Bypasses tracing; :func:`batch_route` hands the result to an
    attached recorder.
    """
    src, keys_w = _request_arrays(net, sources, keys)
    # Routes rarely exceed log2(n) hops.  Starting at the power of two
    # that doubling from 8 would reach for them spares ``record``
    # re-copying the buffer mid-batch, twice at N >= 32 768.
    log_n = len(net.ring).bit_length()
    log = _HopLog(src, cap=max(8, 1 << (log_n - 1).bit_length()))
    plan = net._layer_plan()
    # Hops taken by the end of each layer; differenced into per-layer
    # counts once, instead of counted per frontier step.
    hops_per_layer = np.zeros((len(src), len(plan)), dtype=np.int64)
    cur = src

    for col, row in enumerate(plan):
        greedy = row.layer == 1 and net._greedy_global
        view = row.view()
        # Each lane enters at its current peer's slot: the peer's
        # position in its ring, past the rings laid out before it.
        start = row.pos_of_peer[cur]
        code = None
        if row.ring_of_peer is not None:
            code = row.ring_of_peer[cur]
            start = view.base[code] + start

        def sink(
            lanes: npt.NDArray[np.int64],
            prev_slot: npt.NDArray[np.int64],
            next_slot: npt.NDArray[np.int64],
            peers: npt.NDArray[np.int64] = view.peers,
        ) -> None:
            log.record(lanes, peers[next_slot])

        final = route_layer(
            view, start, keys_w, code,
            to_owner=greedy, succ_list_r=row.succ_list_r, sink=sink,
        )
        cur = view.peers[final]
        if row.layer == 1 and not greedy:
            # Terminating step (§3.2): the global predecessor hands the
            # request to the key's owner, like flat Chord's final hop.
            ring = net.ring
            owner_peer = ring.peers[ring.successor_positions(keys_w)]
            last = np.flatnonzero(cur != owner_peer)
            if last.size:
                log.record(last, owner_peer[last])
            cur = owner_peer
        hops_per_layer[:, col] = log.hop_count
    hops_per_layer[:, 1:] -= hops_per_layer[:, :-1].copy()

    path_buf = log.paths() if paths else None
    delays = log.priced(net.latency)
    return BatchRouteResult(
        sources=src,
        keys=keys_w,
        owner=cur,
        hops=log.hop_count,
        latency_ms=hop_sums(delays, log.hop_count),
        hops_per_layer=hops_per_layer,
        hop_latency_ms=delays.T,
        paths=path_buf,
    )


def scalar_batch_route(
    network: DHTNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Per-request ``route()`` calls packed into a ``BatchRouteResult``.

    The fallback engine: works for every stack (and each ``route()``
    folds itself into an attached recorder).  Per-hop latency rows are
    recomputed from each path with one bulk ``pairs`` call, which
    yields the same elementwise values the scalar route summed.
    """
    src = _lanes(sources, "sources", np.int64)
    keys_in = _lanes(keys, "keys", np.uint64)
    require(len(src) == len(keys_in), "sources and keys must align")
    results = [
        network.route(int(s), int(k)) for s, k in zip(src.tolist(), keys_in.tolist())
    ]
    n_lanes = len(results)
    n_layers = max((len(r.hops_per_layer) for r in results), default=1) or 1
    cap = max((r.hops for r in results), default=0)
    cap = max(cap, 1)
    keys_w = np.array([r.key for r in results], dtype=np.uint64)
    owner = np.array([r.owner for r in results], dtype=np.int64)
    hops = np.array([r.hops for r in results], dtype=np.int64)
    latency_ms = np.array([r.latency_ms for r in results], dtype=np.float64)
    hops_per_layer = np.zeros((n_lanes, n_layers), dtype=np.int64)
    hop_latency = np.zeros((cap, n_lanes), dtype=np.float64)  # hop-major, as the walker's
    path_buf: npt.NDArray[np.int64] | None = None
    if paths:
        path_buf = np.full((n_lanes, cap + 1), -1, dtype=np.int64)
        if n_lanes:
            path_buf[:, 0] = src
    latency_model: LatencyModel | None = getattr(network, "latency", None)
    for i, r in enumerate(results):
        # Right-align into the last columns so column -1 is always the
        # global ring, preserving the low/top split for flat results.
        row = r.hops_per_layer if r.hops_per_layer else [r.hops]
        hops_per_layer[i, n_layers - len(row):] = row
        if r.hops:
            arr = np.asarray(r.path, dtype=np.int64)
            if latency_model is not None:
                hop_latency[: r.hops, i] = latency_model.pairs(arr[:-1], arr[1:])
            if path_buf is not None:
                path_buf[i, 1 : r.hops + 1] = arr[1:]
    return BatchRouteResult(
        sources=src,
        keys=keys_w,
        owner=owner,
        hops=hops,
        latency_ms=latency_ms,
        hops_per_layer=hops_per_layer,
        hop_latency_ms=hop_latency.T,
        paths=path_buf,
    )


def batch_route(
    network: DHTNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
    engine: str = "batch",
) -> BatchRouteResult:
    """Route a batch of lookups through ``network``.

    The single place that chooses between the vectorized kernels and
    the per-request scalar loop.  ``engine="batch"`` (default) uses the
    kernels whenever :func:`supports_batch` allows and per-request
    ``route()`` calls otherwise.  With a span recorder attached the
    kernels still run and the recorder folds the whole batch at once —
    the same registry state as the scalar loop leaves.
    ``engine="scalar"`` is the door to the scalar reference the
    equivalence tests and benchmarks compare against.  Results are
    bit-identical either way.
    """
    require(engine in ("batch", "scalar"), f"unknown engine {engine!r}")
    if engine == "batch" and supports_batch(network):
        result = batch_route_chord(network, sources, keys, paths=paths)
        if network.metrics is not None:
            network.metrics.record_batch(network.span_label, result, network._layer_plan())
        return result
    return scalar_batch_route(network, sources, keys, paths=paths)


def replay_spans(network: ChordNetwork, result: BatchRouteResult, *, label: str) -> None:
    """Fold every lane of ``result`` into the network's attached recorder.

    One ``record_batch`` call under ``label``: the registry state
    per-request scalar routing would have left.
    """
    recorder = network.metrics
    if recorder is None:
        raise ValueError("no span recorder attached")
    recorder.record_batch(label, result, network._layer_plan())
