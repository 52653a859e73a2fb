"""Analysis toolkit: statistics and paper-style table rendering.

* :mod:`repro.analysis.stats` — summaries, hop-count PDFs (Figure 4)
  and comparison helpers.
* :mod:`repro.analysis.tables` — fixed-width / markdown table printers
  used by the experiment harness to emit the same rows and series the
  paper reports.
* :mod:`repro.analysis.plots` — terminal renderings (bar charts, line
  plots, sparklines) so the distribution figures keep their shape in
  text output.
* :mod:`repro.analysis.compare` — bootstrap confidence intervals and
  paired A/B comparisons (the error bars the paper omits).
"""

from repro.analysis.compare import (
    CiResult,
    bootstrap_ci,
    bootstrap_ratio_ci,
    compare_means,
)
from repro.analysis.plots import bar_chart, line_plot, sparkline
from repro.analysis.stats import (
    RouteSample,
    collect_routes,
    hop_pdf,
    ratio_percent,
    summarize,
)
from repro.analysis.tables import format_table, render_series

__all__ = [
    "RouteSample",
    "collect_routes",
    "summarize",
    "hop_pdf",
    "ratio_percent",
    "format_table",
    "render_series",
    "bar_chart",
    "line_plot",
    "sparkline",
    "CiResult",
    "bootstrap_ci",
    "bootstrap_ratio_ci",
    "compare_means",
]
