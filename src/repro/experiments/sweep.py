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
import itertools
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable

from repro.analysis.stats import collect_routes, ratio_percent
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace
from repro.util.validation import require

__all__ = ["SweepSpec", "run_sweep", "write_csv"]


@dataclass(frozen=True)
class SweepSpec:
    """The cartesian grid of configurations to evaluate."""

    models: tuple[str, ...] = ("ts",)
    sizes: tuple[int, ...] = (1000,)
    landmarks: tuple[int, ...] = (4,)
    depths: tuple[int, ...] = (2,)
    seeds: tuple[int, ...] = (42,)
    n_requests: int = 10_000

    def __post_init__(self) -> None:
        require(len(self.models) >= 1, "need at least one model")
        require(len(self.sizes) >= 1, "need at least one size")
        require(len(self.landmarks) >= 1, "need at least one landmark count")
        require(len(self.depths) >= 1, "need at least one depth")
        require(len(self.seeds) >= 1, "need at least one seed")
        require(self.n_requests >= 1, "n_requests must be >= 1")

    @property
    def n_cells(self) -> int:
        """Number of grid cells the sweep will evaluate."""
        return (
            len(self.models)
            * len(self.sizes)
            * len(self.landmarks)
            * len(self.depths)
            * len(self.seeds)
        )

    def configs(self) -> Iterable[SimConfig]:
        """The grid, in deterministic iteration order."""
        for model, size, lms, depth, seed in itertools.product(
            self.models, self.sizes, self.landmarks, self.depths, self.seeds
        ):
            yield SimConfig(
                model=model, n_peers=size, n_landmarks=lms, depth=depth, seed=seed
            )


def _evaluate(config: SimConfig, n_requests: int) -> dict[str, object]:
    bundle = build_bundle(config)
    trace = make_trace(bundle, n_requests)
    chord = collect_routes(bundle.chord, trace)
    hieras = collect_routes(bundle.hieras, trace)
    return {
        "model": config.model,
        "n_peers": config.n_peers,
        "n_landmarks": config.n_landmarks,
        "depth": config.depth,
        "seed": config.seed,
        "n_requests": n_requests,
        "rings_layer2": len(bundle.hieras.rings_at_layer(2)),
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


def run_sweep(
    spec: SweepSpec,
    *,
    progress: Callable[[str], None] | None = None,
) -> list[dict[str, object]]:
    """Evaluate every grid cell; returns one tidy row per cell.

    Invalid cells (e.g. Inet below its 3000-router floor) are skipped
    with a progress note rather than aborting the sweep.
    """
    rows: list[dict[str, object]] = []
    for config in spec.configs():
        try:
            row = _evaluate(config, spec.n_requests)
        except ValueError as exc:
            if progress:
                progress(f"skip {config.model}/{config.n_peers}: {exc}")
            continue
        rows.append(row)
        if progress:
            progress(
                f"{config.model} n={config.n_peers} L={config.n_landmarks} "
                f"d={config.depth} seed={config.seed}: "
                f"ratio={row['latency_ratio_pct']}%"
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
