"""Deterministic open-loop load generation and SLO reporting.

Three pieces (DESIGN.md §12):

* :mod:`repro.loadgen.schedule` — arrival schedules (constant-rate,
  flash crowd) turned into arrival instants via time-rescaling of a
  seeded unit-rate Poisson process;
* :mod:`repro.loadgen.workload` — a locust-style user mix (3:1
  read:write over a Zipf key catalogue) stamping each arrival into a
  :class:`~repro.serve.request.Request`;
* :mod:`repro.loadgen.slo` — the SLO reporter condensing a serve run's
  metrics into offered/achieved throughput and p50/p99/p999 per phase.

Everything is a pure function of its seed — same inputs, same bytes.
"""

from repro.loadgen.schedule import Schedule, constant_rate, flash_crowd
from repro.loadgen.slo import PHASES, SLOReport, phase_stats
from repro.loadgen.workload import WorkloadMix, catalog_names, generate

__all__ = [
    "PHASES",
    "SLOReport",
    "Schedule",
    "WorkloadMix",
    "catalog_names",
    "constant_rate",
    "flash_crowd",
    "generate",
    "phase_stats",
]
