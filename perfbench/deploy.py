"""Set-up shared by every workload: one deployment, one trace, one fill pass.

``setup_s`` covers everything here — building the bundle, generating
the lookup trace, and one untimed cache-filling pass per stack — so
work moved between the eager build and a lazy first use cannot hide.
The fill pass also yields the workload's sim statistics and the
reference every later pass over the same trace must reproduce.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.engine import BatchRouteResult, StreamStats, stream_batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle
from repro.scale import build_scale_bundle
from repro.util.rng import RngFactory
from repro.workloads.requests import RequestTrace, generate_requests

from perfbench.spec import NETWORK_SEED, STACKS
from perfbench.tracing import Tracer


def current_rss_mb() -> float:
    """Resident set size right now, in MiB (0.0 where /proc is absent)."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def networks(bundle: SimulationBundle) -> tuple[tuple[str, Any], ...]:
    """``(label, network)`` for both stacks, Chord first."""
    return tuple((stack, getattr(bundle, stack)) for stack in STACKS)


def oracle_owners(ids_of_peer: np.ndarray, live: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Key owners from first principles: the live peer with the
    smallest id >= key, wrapping — no ring array of the library read."""
    live_peers = np.flatnonzero(live)
    order = np.argsort(ids_of_peer[live_peers])
    sorted_ids = ids_of_peer[live_peers][order]
    pos = np.searchsorted(sorted_ids, keys, side="left")
    pos[pos == len(sorted_ids)] = 0
    return live_peers[order][pos]


def _checksum_of(sources: np.ndarray, keys: np.ndarray, owners: np.ndarray) -> int:
    """The streaming owner checksum a given owner vector would produce."""
    n = len(owners)
    zeros = np.zeros((n, 1))
    stats = StreamStats()
    stats.absorb(
        BatchRouteResult(
            sources=sources,
            keys=keys,
            owner=owners,
            hops=np.zeros(n, dtype=np.int64),
            latency_ms=zeros[:, 0],
            hops_per_layer=zeros.astype(np.int64),
            hop_latency_ms=zeros,
        ),
        offset=0,
    )
    return stats.owner_checksum


@dataclass
class PassResult:
    """One sweep of the trace through one stack, chunk by chunk."""

    chunk_s: list[float] = field(default_factory=list)
    lookups: int = 0
    hop_sum: int = 0
    low_hop_sum: int = 0
    latency_sum_ms: float = 0.0
    checksums: list[int] = field(default_factory=list)

    def signature(self) -> tuple[Any, ...]:
        """What a repeat of the same pass must reproduce exactly."""
        return (self.lookups, self.hop_sum, self.latency_sum_ms, tuple(self.checksums))


def route_pass(
    net: Any, trace: RequestTrace, chunk: int, tracer: Tracer, span_name: str
) -> PassResult:
    """Stream ``trace`` through ``net``, one timed call per chunk."""
    out = PassResult()
    for start in range(0, len(trace), chunk):
        src = trace.sources[start : start + chunk]
        keys = trace.keys[start : start + chunk]
        stats, dt = tracer.call(span_name, stream_batch_route, net, src, keys, lanes=len(src))
        out.chunk_s.append(dt)
        out.lookups += stats.lookups
        out.hop_sum += stats.hop_sum
        if stats.per_layer_hop_sum is not None:
            out.low_hop_sum += int(stats.per_layer_hop_sum[:-1].sum())
        out.latency_sum_ms += stats.latency_sum_ms
        out.checksums.append(stats.owner_checksum)
    return out


@dataclass
class Deployment:
    """What set-up hands to the timed part of a workload."""

    bundle: SimulationBundle
    trace: RequestTrace
    chunk: int
    #: Reference pass per stack (the fill pass).
    fill: dict[str, PassResult]
    #: Wall seconds of each set-up stage.
    stage_s: dict[str, float]
    #: Resident memory the fill passes added (the latency model's lazy state).
    fill_rss_delta_mb: float
    #: Workload-specific inputs generated during set-up.
    extra: dict[str, Any] = field(default_factory=dict)

    def sim(self) -> dict[str, float]:
        """Seed-deterministic statistics of the fill pass."""
        chord, hieras = self.fill["chord"], self.fill["hieras"]
        return {
            "dht.chord.mean_hops": chord.hop_sum / chord.lookups,
            "dht.chord.mean_latency_ms": chord.latency_sum_ms / chord.lookups,
            "core.hieras.mean_hops": hieras.hop_sum / hieras.lookups,
            "core.hieras.mean_latency_ms": hieras.latency_sum_ms / hieras.lookups,
            "core.hieras.low_layer_hop_share": hieras.low_hop_sum / hieras.hop_sum,
            "latency_ratio": hieras.latency_sum_ms / chord.latency_sum_ms,
        }


def deploy(
    *,
    n_peers: int,
    streaming: bool,
    lookups: int,
    chunk: int,
    seed: int,
    tracer: Tracer,
) -> Deployment:
    """Build the deployment and take it to its first routable lookup.

    ``streaming`` forces the streaming latency model (the million-peer
    code path) at a size this box can afford.
    """
    stage_s: dict[str, float] = {}
    config = SimConfig(model="ts", n_peers=n_peers, seed=NETWORK_SEED)
    threshold = 1 if streaming else 1 << 30

    def build() -> SimulationBundle:
        return build_scale_bundle(config, streaming_threshold_bytes=threshold)

    def make_trace() -> RequestTrace:
        rng = RngFactory(seed).get("perfbench-lookups")
        return generate_requests(lookups, n_peers, bundle.space, seed=rng)

    with tracer.span("setup"):
        bundle, stage_s["scale.build_s"] = tracer.call("scale.build_bundle", build)
        trace, stage_s["workloads.make_trace_s"] = tracer.call("workloads.make_trace", make_trace)
        fill: dict[str, PassResult] = {}
        rss_before = current_rss_mb()
        for stack, net in networks(bundle):
            fill[stack] = route_pass(net, trace, chunk, tracer, f"setup.fill.{stack}")
            stage_s[f"fill.{stack}_s"] = sum(fill[stack].chunk_s)

    return Deployment(
        bundle=bundle, trace=trace, chunk=chunk, fill=fill, stage_s=stage_s,
        fill_rss_delta_mb=current_rss_mb() - rss_before,
    )


def fill_checks(dep: Deployment) -> dict[str, bool]:
    """Output checks on the fill pass (run outside the timed set-up)."""
    trace, chunk = dep.trace, dep.chunk
    everyone = np.ones(len(dep.bundle.node_ids), dtype=bool)
    expected = [
        _checksum_of(
            trace.sources[a : a + chunk],
            trace.keys[a : a + chunk],
            oracle_owners(dep.bundle.node_ids, everyone, trace.keys[a : a + chunk]),
        )
        for a in range(0, len(trace), chunk)
    ]
    return {
        "owners_match_oracle.chord": dep.fill["chord"].checksums == expected,
        "owners_match_oracle.hieras": dep.fill["hieras"].checksums == expected,
        "owner_checksums_equal": dep.fill["chord"].checksums == dep.fill["hieras"].checksums,
    }
