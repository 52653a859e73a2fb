"""Experiment harness: one registered experiment per paper artifact.

Every table and figure of the paper's evaluation (§4) has a runnable
experiment here, plus the ablations DESIGN.md calls out:

========  ===========================================================
id        paper artifact
========  ===========================================================
table1    Table 1 — landmark orders of the 6 sample nodes
table2    Table 2 — two-layer finger tables of one node
fig2      Figure 2 — average routing hops vs network size
fig3      Figure 3 — average routing latency vs size (TS/Inet/BRITE)
fig4      Figure 4 — PDF of routing hops at 10000 nodes
fig5      Figure 5 — CDF of routing latency at 10000 nodes
fig6      Figure 6 — hops vs number of landmarks
fig7      Figure 7 — latency vs number of landmarks
fig8      Figure 8 — hops vs hierarchy depth
fig9      Figure 9 — latency vs hierarchy depth
========  ===========================================================

Run them with ``python -m repro.experiments run <id>`` (add ``--full``
or set ``REPRO_FULL=1`` for paper-scale parameters) or through the
pytest benchmarks in ``benchmarks/``.
"""

from repro.experiments.config import SimConfig, is_full_scale
from repro.experiments.figures import EXPERIMENTS, ExperimentResult, get_experiment
from repro.experiments.runner import SimulationBundle, build_bundle, run_pair

__all__ = [
    "SimConfig",
    "is_full_scale",
    "SimulationBundle",
    "build_bundle",
    "run_pair",
    "EXPERIMENTS",
    "ExperimentResult",
    "get_experiment",
]
