"""Declarative, seeded failure-campaign suite (scenario benchmarks).

The fault layer (:mod:`repro.faults`) gives primitive events; this
package composes them into *named campaigns* — graceful mass departure,
abrupt crash waves, a whole lowest-layer HIERAS ring dying at once,
flash joins, long-running heavy-tailed session churn, rolling landmark
outages, and the durability bench's two crash waves with a rejoin —
each compiled to a concrete :class:`CompiledScenario` (fault plan +
requests: client gets and puts beside membership waves) and served
identically against both execution stacks.  Per scenario the runner
measures availability over time, route stretch versus a fault-free
twin, sustained recovery time, and data durability.  Compilation and
replay are pure functions of ``(config, params)``.
"""

from repro.scenarios.library import SCENARIOS, scenario_names
from repro.scenarios.runner import run_scenario_cell
from repro.scenarios.spec import CompiledScenario, ScenarioParams
from repro.scenarios.timeline import recovery_time_ms, series_summary

__all__ = [
    "CompiledScenario",
    "SCENARIOS",
    "ScenarioParams",
    "recovery_time_ms",
    "run_scenario_cell",
    "scenario_names",
    "series_summary",
]
