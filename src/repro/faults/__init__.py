"""Fault injection and failure-aware routing (paper §3.3–§3.4).

The paper argues *qualitatively* that HIERAS tolerates failures as
cheaply as flat Chord because every layer keeps its own successor list.
This package makes the claim testable: deterministic, seeded fault
schedules (:class:`FaultPlan`) drive both execution stacks through node
crashes, revivals and message-loss bursts, while the static networks
gain a lossy routing mode (``route_lossy``) whose per-hop timeout/retry
accounting comes from a shared :class:`RetryPolicy`.
"""

from repro.faults.injector import FaultInjector, FaultState, LookupFaults, LossyContext
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultState",
    "LookupFaults",
    "LossyContext",
    "RetryPolicy",
]
