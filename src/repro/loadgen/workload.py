"""User-mix workload generation over an arrival schedule.

A :class:`WorkloadMix` describes *what* each arrival does — locust
style: a read-heavy ``get``/``put`` mix (3:1 by default) over a
Zipf-popular key catalogue, issued from sources drawn uniformly from a
peer pool.  :func:`generate` marries a mix with the arrival instants
produced by :class:`~repro.loadgen.schedule.Schedule` and emits the
sorted :class:`~repro.serve.request.Request` list the service
consumes.  All randomness flows through one ``make_rng(seed)``
generator in a fixed draw order, so the same ``(mix, arrivals, pool,
seed)`` reproduce the same request list byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.serve.request import Request
from repro.util.rng import make_rng
from repro.util.validation import require, require_int
from repro.workloads.requests import zipf_weights

__all__ = ["WorkloadMix", "catalog_names", "generate"]


@dataclass(frozen=True)
class WorkloadMix:
    """What the request stream is made of.

    ``read_fraction`` of arrivals are ``get``s, the rest ``put``s; both
    pick keys by Zipf popularity rank over a ``catalog_size`` catalogue
    (rank 1 is hottest), as :func:`repro.workloads.zipf_weights` weighs it.
    """

    read_fraction: float = 0.75
    catalog_size: int = 512
    zipf_exponent: float = 0.95
    name_prefix: str = "key"

    def __post_init__(self) -> None:
        require(
            0.0 <= self.read_fraction <= 1.0,
            f"read_fraction must be in [0, 1], got {self.read_fraction}",
        )
        require_int(self.catalog_size, 1, name="catalog_size")
        require(self.zipf_exponent > 0, f"zipf_exponent must be > 0, got {self.zipf_exponent}")


def catalog_names(mix: WorkloadMix) -> list[str]:
    """The key catalogue, hottest first (rank order matches Zipf weights)."""
    return [f"{mix.name_prefix}-{rank}" for rank in range(1, mix.catalog_size + 1)]


def generate(
    mix: WorkloadMix,
    arrivals_ms: npt.NDArray[np.float64],
    source_pool: npt.NDArray[np.int64],
    seed: int | np.random.Generator = 0,
) -> list[Request]:
    """Turn arrival instants into a sorted, serviceable request list.

    Draw order is fixed (ops, then key ranks, then sources — one
    vectorized draw each), so output is a pure function of the inputs.
    ``put`` values are ``"v<seq>"`` — unique per request, which lets
    tests distinguish write versions end to end.
    """
    arrivals = np.sort(np.asarray(arrivals_ms, dtype=np.float64))
    pool = np.asarray(source_pool, dtype=np.int64)
    require(pool.size > 0, "source_pool must be non-empty")
    n = int(arrivals.size)
    if n == 0:
        return []
    rng = make_rng(seed)
    is_get = rng.random(n) < mix.read_fraction
    ranks = rng.choice(
        mix.catalog_size, size=n, p=zipf_weights(mix.catalog_size, mix.zipf_exponent)
    )
    sources = pool[rng.integers(0, pool.size, size=n)]
    requests: list[Request] = []
    for i in range(n):
        name = f"{mix.name_prefix}-{int(ranks[i]) + 1}"
        if is_get[i]:
            requests.append(
                Request(op="get", at_ms=float(arrivals[i]), source=int(sources[i]), name=name)
            )
        else:
            requests.append(
                Request(
                    op="put", at_ms=float(arrivals[i]), source=int(sources[i]),
                    name=name, value=f"v{i}",
                )
            )
    return requests
