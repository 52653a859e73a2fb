"""Scenario data model: parameters and compiled campaigns.

A *scenario* is a named, seeded failure campaign.  Declaring one
produces a :class:`CompiledScenario` — the fully concrete form the
runner replays: a :class:`~repro.faults.plan.FaultPlan` (crashes,
revives, landmark outages applied through the injector), the
time-sorted :class:`~repro.serve.request.Request` records — client
gets and puts, and the overlay-level changes the injector deliberately
does not perform (announced leaves, stabilize purges, join waves,
rebalance passes) — the key names seeded before the run, and the peers
held out of the initial membership.

Compilation is deterministic: every random choice (who leaves, which
ring dies, who joins when, which peer sends each op) is drawn from
:class:`~repro.util.rng.RngFactory` streams keyed by the scenario seed
and a per-decision name, so the same ``(bundle, params)`` always
compiles to the same campaign — the repo-wide determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults.plan import FaultPlan
from repro.replication.policy import ReplicationPolicy
from repro.serve.request import Request
from repro.util.validation import require, require_int

__all__ = ["CompiledScenario", "ScenarioParams"]


@dataclass
class CompiledScenario:
    """A concrete, replayable failure campaign.

    ``fault_start_ms`` marks the beginning of the campaign's main
    damage window — recovery time is measured from here.  ``seeded``
    names the keys written onto their replica groups before the run
    (value ``"seed-<name>"``).  ``notes``
    carries compile-time evidence about what the campaign actually
    does (which ring died and how big it was, how many churn events
    were compiled, …); values must be JSON-safe.
    """

    name: str
    duration_ms: float
    plan: FaultPlan
    requests: tuple[Request, ...]
    seeded: tuple[str, ...] = ()
    initial_offline: tuple[int, ...] = ()
    fault_start_ms: float = 0.0
    notes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.duration_ms > 0.0, "duration_ms must be > 0")
        arrivals = [r.at_ms for r in self.requests]
        require(arrivals == sorted(arrivals), "requests must be time-sorted")


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
    #: time-series resolution).
    probe_interval_ms: float = 150.0
    #: Lookups per probe cohort; ``0`` runs no probes (no availability
    #: series, no route stretch, no fault-free twin).
    n_probes: int = 24
    #: Client op stream base rate (requests/second).
    rate_per_s: float = 40.0
    #: Time of the main fault wave for single-wave scenarios.
    fault_at_ms: float = 1000.0
    #: Delay from a crash wave to the stabilize purge (a silent leave of
    #: the peers still crashed) that repairs routing state.
    stabilize_delay_ms: float = 600.0
    #: Weibull-churn session shape/means (heavy-tailed below shape 1).
    mean_session_ms: float = 1500.0
    mean_offline_ms: float = 1200.0
    weibull_shape: float = 0.6
    #: Fraction that fails: of the Weibull churn's departures, and of
    #: the universe in each wave of the two-wave crash.
    fail_fraction: float = 0.5
    #: Message-loss rate of the burst that accompanies the regional
    #: crash (correlated network damage) until stabilization completes.
    loss_rate: float = 0.35
    #: Rolling landmark-outage count.
    n_outages: int = 2
    #: Client workload mix (``catalog_size`` is the two-wave crash's
    #: base-key count).
    catalog_size: int = 64
    read_fraction: float = 0.75
    #: How the store under test replicates.
    policy: ReplicationPolicy = ReplicationPolicy(
        replicas=2, consistency="quorum", placement="ring_scoped"
    )

    def __post_init__(self) -> None:
        require(self.duration_ms > 0.0, "duration_ms must be > 0")
        require(self.probe_interval_ms > 0.0, "probe_interval_ms must be > 0")
        require_int(self.seed, 0, name="seed")
        require_int(self.n_probes, 0, name="n_probes")
        require(self.rate_per_s >= 0.0, "rate_per_s must be >= 0")
        require(
            0.0 <= self.fault_at_ms < self.duration_ms,
            "fault_at_ms must fall inside the run",
        )
        require(self.stabilize_delay_ms > 0.0, "stabilize_delay_ms must be > 0")
        require(self.weibull_shape > 0.0, "weibull_shape must be > 0")
        require(0.0 <= self.fail_fraction <= 1.0, "fail_fraction must be in [0, 1]")
        require(0.0 <= self.loss_rate < 1.0, "loss_rate must be in [0, 1)")
        require_int(self.n_outages, 1, name="n_outages")
        require_int(self.catalog_size, 1, name="catalog_size")
