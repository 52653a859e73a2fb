"""Terminal plots: ASCII histograms, CDF curves and sparklines.

The experiment harness is terminal-first (no plotting dependency), but
figures 4 and 5 are *distributions* — a table of numbers hides their
shape.  These renderers draw the shapes directly in monospace text:

* :func:`bar_chart` — horizontal bars for a PDF (Figure 4).
* :func:`line_plot` — multi-series dot plot for CDFs (Figure 5) or any
  x→y series (Figures 2/3/6–9).
* :func:`sparkline` — a one-line trend, for compact summaries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.util.validation import require

__all__ = ["bar_chart", "line_plot", "sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_MARKERS = "ox+*#@"


def bar_chart(
    labels: Sequence[object],
    values: Sequence[float],
    *,
    width: int = 50,
    title: str | None = None,
) -> str:
    """Horizontal bar chart; bars scale to the maximum value."""
    require(len(labels) == len(values), "labels and values must align")
    require(len(values) >= 1, "need at least one bar")
    require(width >= 4, "width must be >= 4")
    vmax = max(max(values), 1e-12)
    label_w = max(len(str(lab)) for lab in labels)
    lines = [title] if title else []
    for lab, val in zip(labels, values):
        bar = "█" * max(int(round(width * val / vmax)), 1 if val > 0 else 0)
        lines.append(f"{str(lab).rjust(label_w)} |{bar.ljust(width)} {val:.4f}")
    return "\n".join(lines)


def line_plot(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    title: str | None = None,
) -> str:
    """Multi-series scatter/line plot on a character grid.

    Each series gets a marker (``o x + * # @`` in order); overlapping
    points show the later series' marker.  Axes are annotated with min
    and max values.
    """
    require(len(xs) >= 2, "need at least two x values")
    require(1 <= len(series) <= len(_MARKERS), f"1..{len(_MARKERS)} series supported")
    for name, ys in series.items():
        require(len(ys) == len(xs), f"series {name!r} length mismatch")
    xs_arr = np.asarray(xs, dtype=np.float64)
    all_y = np.concatenate([np.asarray(ys, dtype=np.float64) for ys in series.values()])
    x_lo, x_hi = float(xs_arr.min()), float(xs_arr.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), _MARKERS):
        for x, y in zip(xs_arr, np.asarray(ys, dtype=np.float64)):
            col = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = [title] if title else []
    legend = "  ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(legend)
    y_hi_lab = f"{y_hi:.4g}"
    y_lo_lab = f"{y_lo:.4g}"
    pad = max(len(y_hi_lab), len(y_lo_lab))
    for r, row in enumerate(grid):
        label = y_hi_lab if r == 0 else (y_lo_lab if r == height - 1 else "")
        lines.append(f"{label.rjust(pad)} |{''.join(row)}")
    lines.append(f"{' ' * pad} +{'-' * width}")
    x_axis = f"{x_lo:.4g}".ljust(width - 8) + f"{x_hi:.4g}"
    lines.append(f"{' ' * pad}  {x_axis}  ({x_label})")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line trend of a numeric series (8 intensity levels)."""
    require(len(values) >= 1, "need at least one value")
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return _SPARK_LEVELS[0] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[int(round(v))] for v in scaled)
