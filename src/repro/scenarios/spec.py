"""Scenario data model: parameters, membership waves, compiled campaigns.

A *scenario* is a named, seeded failure campaign.  Declaring one
produces a :class:`CompiledScenario` — the fully concrete form the
runner replays: a :class:`~repro.faults.plan.FaultPlan` (crashes,
revives, landmark outages applied through the injector), a time-sorted
tuple of :class:`MembershipWave` records (announced leaves, stabilize
purges, join/revive waves, rebalance passes — the overlay-level changes
the injector deliberately does not perform), one
:class:`~repro.loadgen.schedule.Schedule` driving the client op
stream, and the peers held out of the initial membership.

Compilation is deterministic: every random choice (who leaves, which
ring dies, who joins when) is drawn from
:class:`~repro.util.rng.RngFactory` streams keyed by the scenario seed
and a per-decision name, so the same ``(bundle, params)`` always
compiles to the same campaign — the repo-wide determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults.plan import FaultPlan
from repro.loadgen.schedule import Schedule
from repro.util.validation import require, require_int

__all__ = ["MembershipWave", "CompiledScenario", "ScenarioParams", "WAVE_KINDS"]

#: Overlay-level wave kinds the runner knows how to apply.
#:
#: * ``leave_graceful`` — announced departure: ``remove_peers(...,
#:   graceful=True)``; attached stores hand keys off before disks drop.
#: * ``remove`` — silent departure: plain ``remove_peers`` (disks gone).
#: * ``stabilize`` — purge *crashed* peers from the rings, modelling a
#:   stabilization round: only peers still injector-dead and
#:   net-alive when the wave fires are removed.
#: * ``revive`` — previously-removed peers rejoin under their old ring
#:   names (the injector revives crashed ones separately, via the plan).
#: * ``rebind_revive`` — rejoin under *new* lower-ring names (degraded
#:   landmark measurements); flat stacks treat this as ``revive``.
#: * ``rebalance`` — one storage rebalance pass: every key is re-homed
#:   onto its current replica group.
WAVE_KINDS = (
    "leave_graceful",
    "remove",
    "stabilize",
    "revive",
    "rebind_revive",
    "rebalance",
)


@dataclass(frozen=True)
class MembershipWave:
    """One overlay-level membership action at a point in scenario time."""

    time_ms: float
    kind: str
    peers: tuple[int, ...] = ()
    #: ``rebind_revive`` only: one ring-name tuple (layer 2 first) per
    #: peer, in ``peers`` order.
    ring_names: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        require(self.time_ms >= 0.0, "wave time_ms must be >= 0")
        require(self.kind in WAVE_KINDS, f"unknown wave kind {self.kind!r}")
        if self.kind == "rebind_revive":
            require(
                len(self.ring_names) == len(self.peers),
                "rebind_revive needs one ring-name tuple per peer",
            )


@dataclass
class CompiledScenario:
    """A concrete, replayable failure campaign.

    ``fault_start_ms`` marks the beginning of the campaign's main
    damage window — recovery time is measured from here.  ``notes``
    carries compile-time evidence about what the campaign actually
    does (which ring died and how big it was, how many churn events
    were compiled, …); values must be JSON-safe.
    """

    name: str
    duration_ms: float
    plan: FaultPlan
    waves: tuple[MembershipWave, ...]
    schedule: Schedule
    initial_offline: tuple[int, ...] = ()
    fault_start_ms: float = 0.0
    notes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.duration_ms > 0.0, "duration_ms must be > 0")
        times = [w.time_ms for w in self.waves]
        require(times == sorted(times), "waves must be time-sorted")


@dataclass(frozen=True)
class ScenarioParams:
    """Shared knobs every scenario compiles against.

    One frozen parameter set covers the whole suite so a sweep is a
    pure function of ``(config, params)``; individual scenarios read
    the fields they care about and ignore the rest.
    """

    seed: int = 42
    duration_ms: float = 3000.0
    #: Probe cohorts fire every ``probe_interval_ms`` (the availability
    #: time-series resolution — and the wave-application granularity).
    probe_interval_ms: float = 150.0
    n_probes: int = 24
    #: Client op stream base rate (requests/second).
    rate_per_s: float = 40.0
    #: Time of the main fault wave for single-wave scenarios.
    fault_at_ms: float = 1000.0
    #: Delay from a crash wave to the stabilize purge that repairs
    #: routing state (the recovery mechanism on the static stack).
    stabilize_delay_ms: float = 600.0
    #: A scenario has "recovered" once probe availability stays at or
    #: above this rate for the rest of the run.
    recovery_threshold: float = 0.9
    #: Fraction departing in the graceful/abrupt departure scenarios.
    leave_fraction: float = 0.25
    #: Fraction of the universe held out and flash-joined later.
    join_fraction: float = 0.4
    #: Weibull-churn session shape/means (heavy-tailed below shape 1).
    mean_session_ms: float = 1500.0
    mean_offline_ms: float = 1200.0
    weibull_shape: float = 0.6
    fail_fraction: float = 0.5
    #: Message-loss rate of the burst that accompanies the regional
    #: crash (correlated network damage) until stabilization completes.
    loss_rate: float = 0.35
    #: Rolling landmark-outage count.
    n_outages: int = 2
    #: Client workload mix.
    catalog_size: int = 64
    read_fraction: float = 0.75
    replicas: int = 2

    def __post_init__(self) -> None:
        require(self.duration_ms > 0.0, "duration_ms must be > 0")
        require(self.probe_interval_ms > 0.0, "probe_interval_ms must be > 0")
        require_int(self.seed, 0, name="seed")
        require_int(self.n_probes, 1, name="n_probes")
        require(self.rate_per_s >= 0.0, "rate_per_s must be >= 0")
        require(
            0.0 <= self.fault_at_ms < self.duration_ms,
            "fault_at_ms must fall inside the run",
        )
        require(self.stabilize_delay_ms > 0.0, "stabilize_delay_ms must be > 0")
        require(
            0.0 < self.recovery_threshold <= 1.0,
            "recovery_threshold must be in (0, 1]",
        )
        require(0.0 < self.leave_fraction < 1.0, "leave_fraction must be in (0, 1)")
        require(0.0 < self.join_fraction < 1.0, "join_fraction must be in (0, 1)")
        require(self.weibull_shape > 0.0, "weibull_shape must be > 0")
        require(0.0 <= self.fail_fraction <= 1.0, "fail_fraction must be in [0, 1]")
        require(0.0 <= self.loss_rate < 1.0, "loss_rate must be in [0, 1)")
        require_int(self.n_outages, 1, name="n_outages")
        require_int(self.catalog_size, 1, name="catalog_size")
        require_int(self.replicas, 0, name="replicas")
