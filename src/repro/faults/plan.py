"""Deterministic, composable fault schedules.

A :class:`FaultPlan` is a seeded recipe of failure scenarios — node
crashes, message-loss bursts, latency spikes, network partitions and
landmark outages — declared with fluent builder calls and compiled into
a time-ordered tuple of concrete :class:`FaultEvent` records by
:meth:`FaultPlan.events`.  Compilation is deterministic: any randomness
(which peers crash for a given fraction, which partition side each peer
lands on) is drawn from :class:`repro.util.rng.RngFactory` streams keyed
by the plan seed and the spec's position, so the same plan applied to
the same population always produces the same schedule — on the static
stack and the discrete-event stack alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.util.rng import RngFactory
from repro.util.validation import require, require_int

__all__ = ["FaultEvent", "FaultPlan"]

# Event kinds produced by compilation. Durations expand into start/end
# pairs so appliers only ever handle point events.
KINDS = (
    "crash",
    "revive",
    "loss_start",
    "loss_end",
    "spike_start",
    "spike_end",
    "partition_start",
    "partition_end",
    "landmark_outage",
)


@dataclass(frozen=True)
class FaultEvent:
    """One concrete scheduled fault.

    ``peers`` is filled for crash/revive events, ``rate`` for loss
    bursts, ``factor`` for latency spikes, ``groups`` (one side label
    per peer) for partitions, and ``landmark`` for landmark outages.
    """

    time_ms: float
    kind: str
    peers: tuple[int, ...] = ()
    rate: float = 0.0
    factor: float = 1.0
    groups: tuple[int, ...] = ()
    landmark: int = -1


def _peer_ids(peers: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """``peers`` as plain ints, each a non-bool integer >= 0 (numpy ints too)."""
    ids = tuple(peers)
    for p in ids:
        require_int(p, 0, name="peer")
    return tuple(int(p) for p in ids)


@dataclass
class FaultPlan:
    """Seeded builder of fault schedules (fluent interface).

    Examples
    --------
    >>> plan = (FaultPlan(seed=7)
    ...         .crash_fraction(at_ms=500.0, fraction=0.2)
    ...         .loss_burst(at_ms=200.0, rate=0.3, duration_ms=300.0))
    >>> [e.kind for e in plan.events(100)]
    ['loss_start', 'crash', 'loss_end']
    """

    seed: int = 0
    _specs: list[tuple[str, dict[str, Any]]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def crash_peers(self, *, at_ms: float, peers: list[int] | tuple[int, ...]) -> "FaultPlan":
        """Crash an explicit set of peers at ``at_ms``."""
        require(at_ms >= 0.0, "at_ms must be >= 0")
        self._specs.append(("crash_peers", {"at_ms": float(at_ms), "peers": _peer_ids(peers)}))
        return self

    def crash_fraction(self, *, at_ms: float, fraction: float) -> "FaultPlan":
        """Crash a uniformly-drawn ``fraction`` of the population at ``at_ms``."""
        require(at_ms >= 0.0, "at_ms must be >= 0")
        require(0.0 <= fraction <= 1.0, "fraction must be in [0, 1]")
        self._specs.append(("crash_fraction", {"at_ms": float(at_ms), "fraction": float(fraction)}))
        return self

    def revive_peers(self, *, at_ms: float, peers: list[int] | tuple[int, ...]) -> "FaultPlan":
        """Bring previously-crashed peers back at ``at_ms``."""
        require(at_ms >= 0.0, "at_ms must be >= 0")
        self._specs.append(("revive_peers", {"at_ms": float(at_ms), "peers": _peer_ids(peers)}))
        return self

    def loss_burst(self, *, at_ms: float, rate: float, duration_ms: float) -> "FaultPlan":
        """Raise the message-loss rate to ``rate`` for ``duration_ms``."""
        require(at_ms >= 0.0, "at_ms must be >= 0")
        require(0.0 <= rate < 1.0, "rate must be in [0, 1)")
        require(duration_ms > 0.0, "duration_ms must be > 0")
        self._specs.append(
            ("loss_burst", {"at_ms": float(at_ms), "rate": float(rate), "duration_ms": float(duration_ms)})
        )
        return self

    def latency_spike(self, *, at_ms: float, factor: float, duration_ms: float) -> "FaultPlan":
        """Scale all link delays by ``factor`` for ``duration_ms``."""
        require(at_ms >= 0.0, "at_ms must be >= 0")
        require(factor >= 1.0, "factor must be >= 1")
        require(duration_ms > 0.0, "duration_ms must be > 0")
        self._specs.append(
            ("latency_spike", {"at_ms": float(at_ms), "factor": float(factor), "duration_ms": float(duration_ms)})
        )
        return self

    def partition(self, *, at_ms: float, duration_ms: float, n_groups: int = 2) -> "FaultPlan":
        """Split the population into ``n_groups`` isolated sides.

        Peers are assigned to sides uniformly at random (seeded); while
        the partition holds, messages between different sides are
        undeliverable.
        """
        require(at_ms >= 0.0, "at_ms must be >= 0")
        require(duration_ms > 0.0, "duration_ms must be > 0")
        require(n_groups >= 2, "a partition needs at least 2 sides")
        self._specs.append(
            ("partition", {"at_ms": float(at_ms), "duration_ms": float(duration_ms), "n_groups": int(n_groups)})
        )
        return self

    def crash_ring(
        self, *, at_ms: float, network: Any, name: str, layer: int | None = None
    ) -> "FaultPlan":
        """Crash every member of one HIERAS low-layer ring at ``at_ms``.

        The correlated-failure primitive: a whole topology-aware ring
        (all peers sharing landmark order ``name`` at ``layer``,
        default the lowest layer) dies in one wave — the worst case for
        HIERAS's locality-derived rings.  Members are resolved *now*,
        from the network's current live membership, and sorted, so the
        resulting spec is a plain ``crash_peers`` — deterministic and
        applicable to any same-population network (e.g. the flat Chord
        baseline, for a head-to-head comparison).
        """
        layer = int(layer) if layer is not None else int(network.depth)
        rings = network.rings_at_layer(layer)
        require(name in rings, f"no ring named {name!r} at layer {layer}")
        members = sorted(int(p) for p in rings[name].peers)
        return self.crash_peers(at_ms=at_ms, peers=members)

    def landmark_outage(self, *, at_ms: float, landmark: int) -> "FaultPlan":
        """Take one landmark offline at ``at_ms``.

        Landmarks are measurement infrastructure, not overlay members:
        an outage blinds one coordinate of the binning scheme for nodes
        that join afterwards (§2), without touching existing rings.
        Appliers record the outage in :class:`FaultState.dead_landmarks`
        for join/rebinning logic to consult.
        """
        require(at_ms >= 0.0, "at_ms must be >= 0")
        require(landmark >= 0, "landmark must be >= 0")
        self._specs.append(("landmark_outage", {"at_ms": float(at_ms), "landmark": int(landmark)}))
        return self

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def events(self, n_peers: int) -> tuple[FaultEvent, ...]:
        """Compile the plan into time-sorted concrete events.

        Deterministic in ``(seed, spec order, n_peers)``: each spec that
        needs randomness gets its own named stream, so reordering or
        adding unrelated specs never perturbs another spec's draws.  A
        crashed or revived peer outside ``[0, n_peers)`` raises
        :class:`ValueError`.
        """
        require(n_peers >= 1, "n_peers must be >= 1")
        factory = RngFactory(self.seed)
        out: list[FaultEvent] = []
        for i, (kind, params) in enumerate(self._specs):
            top = max(params.get("peers", ()), default=-1)
            require(top < n_peers, f"peer {top} out of range [0, {n_peers})")
            if kind == "crash_peers":
                out.append(FaultEvent(params["at_ms"], "crash", peers=params["peers"]))
            elif kind == "crash_fraction":
                count = int(round(params["fraction"] * n_peers))
                if count > 0:
                    rng = factory.get(f"spec-{i}-crash")
                    chosen = rng.choice(n_peers, size=min(count, n_peers), replace=False)
                    out.append(
                        FaultEvent(params["at_ms"], "crash", peers=tuple(sorted(int(p) for p in chosen)))
                    )
            elif kind == "revive_peers":
                out.append(FaultEvent(params["at_ms"], "revive", peers=params["peers"]))
            elif kind == "loss_burst":
                out.append(FaultEvent(params["at_ms"], "loss_start", rate=params["rate"]))
                out.append(FaultEvent(params["at_ms"] + params["duration_ms"], "loss_end"))
            elif kind == "latency_spike":
                out.append(FaultEvent(params["at_ms"], "spike_start", factor=params["factor"]))
                out.append(FaultEvent(params["at_ms"] + params["duration_ms"], "spike_end"))
            elif kind == "partition":
                rng = factory.get(f"spec-{i}-partition")
                sides = rng.integers(0, params["n_groups"], size=n_peers)
                out.append(
                    FaultEvent(
                        params["at_ms"], "partition_start", groups=tuple(int(s) for s in sides)
                    )
                )
                out.append(FaultEvent(params["at_ms"] + params["duration_ms"], "partition_end"))
            elif kind == "landmark_outage":
                out.append(
                    FaultEvent(params["at_ms"], "landmark_outage", landmark=params["landmark"])
                )
            else:  # pragma: no cover - builders guarantee known kinds
                raise ValueError(f"unknown fault spec {kind!r}")
        order = np.argsort([e.time_ms for e in out], kind="stable")
        return tuple(out[int(j)] for j in order)

    def __len__(self) -> int:
        return len(self._specs)
