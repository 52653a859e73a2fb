"""Experiment configuration.

A :class:`SimConfig` pins every knob of one simulated deployment —
topology family and size, landmark count and placement, binning depth,
id-space width, seeds — and is hashable so the runner can cache built
simulations across experiments (fig2 and fig3 share their sweep, fig4
and fig5 share their 10000-node network, …).  A :class:`SweepSpec` is
a cartesian grid of them: every figure's deployments, and ``sweep``'s.

Scale control: experiments run at a CI-friendly reduced scale by
default; passing ``full=True`` (CLI ``--full``) or setting the
``REPRO_FULL=1`` environment variable selects the paper's parameters
(10000 nodes, 100000 requests).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from repro.core.hieras import SUCCESSOR_LIST_POLICIES
from repro.topology.inet import INET_MIN_NODES
from repro.util.ids import IdSpace
from repro.util.validation import require, require_int

__all__ = ["SimConfig", "SweepSpec", "below_inet_floor", "is_full_scale", "DEFAULT_REQUESTS", "FULL_REQUESTS"]

#: Router count relative to overlay size; >1 leaves unoccupied routers,
#: as in the paper's emulated networks.
ROUTER_FACTOR = 1.25

#: Requests per experiment at reduced / paper scale (paper: §4.2).
DEFAULT_REQUESTS = 20_000
FULL_REQUESTS = 100_000


def is_full_scale(full: bool | None = None) -> bool:
    """Resolve the scale flag (explicit argument wins over env)."""
    if full is not None:
        return full
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


@dataclass(frozen=True)
class SimConfig:
    """One simulated deployment (topology + overlay + HIERAS settings)."""

    model: str = "ts"  # "ts" | "inet" | "brite"
    n_peers: int = 1000
    n_landmarks: int = 4
    depth: int = 2
    seed: int = 42
    bits: int = 32
    #: ``"auto"`` picks per model: max–min *spread* placement on
    #: transit-stub (one landmark per backbone region) and *random*
    #: placement on Inet (random machines land in population hotspots —
    #: where well-known Internet landmarks actually live; max–min would
    #: select pathological fringe routers there).
    landmark_strategy: str = "auto"
    successor_list_r: int = 16
    successor_list_policy: str = "transitions"

    def __post_init__(self) -> None:
        require(self.model in ("ts", "inet", "brite"), f"unknown model {self.model!r}")
        require_int(self.n_peers, 8, name="n_peers")
        require_int(self.n_landmarks, 1, name="n_landmarks")
        require_int(self.depth, 2, 4, name="depth")
        require_int(self.seed, 0, name="seed")
        require(
            self.landmark_strategy in ("auto", "spread", "random"),
            f"unknown landmark_strategy {self.landmark_strategy!r}",
        )
        # What the id sampler and HierasNetwork would reject, rejected
        # here, before any topology is built.
        space = IdSpace(self.bits)
        require(
            self.n_peers <= space.size,
            f"cannot draw {self.n_peers} unique ids from a space of {space.size}",
        )
        require_int(self.successor_list_r, 0, name="successor_list_r")
        require(
            self.successor_list_policy in SUCCESSOR_LIST_POLICIES,
            f"unknown successor_list_policy {self.successor_list_policy!r}",
        )

    @property
    def resolved_landmark_strategy(self) -> str:
        """Per-model resolution of the ``"auto"`` landmark strategy."""
        if self.landmark_strategy != "auto":
            return self.landmark_strategy
        return "random" if self.model == "inet" else "spread"

    @property
    def n_routers(self) -> int:
        """Router count of the generated topology."""
        return max(64, int(self.n_peers * ROUTER_FACTOR))

    def topology_key(self) -> tuple:
        """Cache key for the expensive substrate (topology + latency +
        attachment + landmarks) — everything that does not depend on
        binning depth or routing settings."""
        return (
            self.model,
            self.n_peers,
            self.n_landmarks,
            self.seed,
            self.bits,
            self.landmark_strategy,
        )


def below_inet_floor(config: SimConfig) -> bool:
    """Whether ``config`` is Inet below the generator's ``INET_MIN_NODES`` routers."""
    return config.model == "inet" and config.n_routers < INET_MIN_NODES


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
        require_int(self.n_requests, 1, name="n_requests")

    @property
    def n_cells(self) -> int:
        """Number of grid cells, skipped ones included."""
        return len(self.configs())

    def configs(self) -> list[SimConfig]:
        """Every cell's config in deterministic order, all built — and so
        validated — before any of them runs."""
        return [
            SimConfig(model=model, n_peers=size, n_landmarks=lms, depth=depth, seed=seed)
            for model, size, lms, depth, seed in itertools.product(
                self.models, self.sizes, self.landmarks, self.depths, self.seeds
            )
        ]

    def cells(self) -> list[SimConfig]:
        """The configs that run: :meth:`configs` minus :func:`below_inet_floor`'s."""
        return [config for config in self.configs() if not below_inet_floor(config)]
