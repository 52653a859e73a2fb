"""Generic parameter sweeps over the simulation grid.

The registered experiments reproduce the paper's exact artifacts; this
module is the tool for everything *around* them — "what if 8 landmarks
on BRITE at depth 3?" — sweeping any combination of model, size,
landmark count, depth and seed, and writing tidy rows (one per cell)
for downstream analysis.

Used by the ``sweep`` CLI subcommand:

    hieras-experiments sweep --models ts,inet --sizes 1000,2000 \\
        --landmarks 4,8 --depths 2,3 --seeds 42,43 --out sweep.csv
"""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Callable

from repro.analysis.stats import ratio_percent
from repro.experiments.config import SweepSpec, below_inet_floor
from repro.experiments.runner import build_bundle, sample_pair
from repro.topology.inet import INET_MIN_NODES
from repro.util.validation import require

__all__ = ["SweepSpec", "run_sweep", "write_csv"]


def run_sweep(
    spec: SweepSpec,
    *,
    progress: Callable[[str], None] | None = None,
) -> list[dict[str, object]]:
    """Evaluate every grid cell; returns one tidy row per cell.

    Every cell's config is built before the first one runs, so a bad
    grid fails before any work.  Inet cells below the generator's floor
    are skipped with a progress note; any other error raises.
    """
    note = progress or (lambda _text: None)
    rows: list[dict[str, object]] = []
    for config in spec.configs():
        if below_inet_floor(config):
            note(
                f"skip {config.model}/{config.n_peers}: Inet needs >= "
                f"{INET_MIN_NODES} routers, this cell has {config.n_routers}"
            )
            continue
        chord, hieras = sample_pair(config, spec.n_requests)
        rows.append(
            {
                "model": config.model,
                "n_peers": config.n_peers,
                "n_landmarks": config.n_landmarks,
                "depth": config.depth,
                "seed": config.seed,
                "n_requests": spec.n_requests,
                "rings_layer2": len(build_bundle(config).hieras.rings_at_layer(2)),
                "chord_hops": round(chord.mean_hops, 4),
                "hieras_hops": round(hieras.mean_hops, 4),
                "chord_latency_ms": round(chord.mean_latency_ms, 2),
                "hieras_latency_ms": round(hieras.mean_latency_ms, 2),
                "latency_ratio_pct": round(
                    ratio_percent(hieras.mean_latency_ms, chord.mean_latency_ms), 2
                ),
                "low_layer_hop_share": round(hieras.low_layer_hop_share, 4),
                "top_layer_hops": round(hieras.mean_top_layer_hops, 4),
            }
        )
        note(
            f"{config.model} n={config.n_peers} L={config.n_landmarks} "
            f"d={config.depth} seed={config.seed}: "
            f"ratio={rows[-1]['latency_ratio_pct']}%"
        )
    return rows


def write_csv(rows: list[dict[str, object]], path: str | Path) -> int:
    """Write sweep rows as CSV; returns the number of data rows."""
    require(len(rows) >= 1, "no rows to write")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)
