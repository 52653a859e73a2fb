"""The struct-of-arrays memory audit of both routing stacks.

Million-peer deployments need no package of their own: they are built
by :func:`repro.experiments.runner.build_bundle` with ``cache=False``
(and a latency budget, if one is wanted), sized by
:meth:`~repro.topology.transit_stub.TransitStubParams.for_size`, and
routed by the ordinary :mod:`repro.dht` / :mod:`repro.core` classes —
incremental membership (``SortedRing.splice`` waves) and interned
ring-name codes included.  This package holds :func:`hot_state_bytes`,
reported by ``BENCH_scale.json``.
"""

from __future__ import annotations

from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle
from repro.topology.transit_stub import TransitStubParams

__all__ = ["build_scale_bundle", "hot_state_bytes", "scale_ts_params"]


def build_scale_bundle(config: SimConfig, **latency_budget: int) -> SimulationBundle:
    """perfbench's import; deleted by ROADMAP item 7."""
    return build_bundle(config, cache=False, **latency_budget)


#: perfbench's import; deleted by ROADMAP item 7.
scale_ts_params = TransitStubParams.for_size


def hot_state_bytes(bundle: SimulationBundle) -> dict[str, int]:
    """Byte counts of the struct-of-arrays routing state of both stacks.

    Seed-deterministic (array shapes and dtypes only), so the numbers
    are safe for a bench document's byte-compared ``metrics`` — and
    they are the receipts for the "no per-peer Python objects on the
    hot path" claim: every entry is a numpy buffer, with ring-name
    strings interned once per *ring*, not per peer.  Per peer, HIERAS
    holds its id and liveness, one global-ring slot, and per lower
    layer one ``int32`` ring code, one ``int32`` position and one ring
    slot (id and peer, 8 B each).

    Not counted: the batch engine's layer views
    (``RingLayer``, one per plan layer).  They are derived state, built
    lazily on the first batch lookup after a membership wave and dropped
    by the next, so whether they exist depends on what has been routed
    — not on the seed — and they stay outside the byte-compared audit.
    Per member of a layer a view holds a sentinel-separated copy of the
    id and the peer (8 B each), the ``owner_of``/``pred_of`` slot tables
    (8 B each) and two to four bucket entries (4 B each for
    2¹⁶ ≤ slots < 2³², narrower below): ≈ 40–48 B.
    """
    chord = bundle.chord
    hieras = bundle.hieras
    chord_total = (
        chord.ring.ids.nbytes
        + chord.ring.peers.nbytes
        + chord._id_of_peer.nbytes
        + chord._alive.nbytes
    )
    hieras_rings = sum(
        ring.ids.nbytes + ring.peers.nbytes
        for layer in range(2, hieras.depth + 1)
        for ring in hieras.rings_at_layer(layer).values()
    )
    hieras_total = (
        hieras.global_ring.ids.nbytes
        + hieras.global_ring.peers.nbytes
        + hieras_rings
        + hieras._id_of_peer.nbytes
        + hieras._alive.nbytes
        + hieras._ring_code.nbytes
        + hieras._pos_in_ring.nbytes
    )
    return {
        "chord_bytes": int(chord_total),
        "hieras_bytes": int(hieras_total),
        "hieras_ring_name_pool_entries": int(
            sum(len(pool) for pool in hieras._name_pool)
        ),
    }
