"""Lookup request traces.

A :class:`RequestTrace` is a pair of aligned arrays (source peer, key).
The paper uses uniformly random sources and keys; the Zipf mode draws
keys from a finite catalogue with Zipf popularity — the file-sharing
workload the paper's introduction motivates (Napster/Gnutella/KaZaA)
and the one the example applications use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["RequestTrace", "generate_requests", "zipf_weights"]


@dataclass(frozen=True)
class RequestTrace:
    """An ordered batch of lookup requests."""

    sources: np.ndarray
    keys: np.ndarray

    def __post_init__(self) -> None:
        require(len(self.sources) == len(self.keys), "sources and keys must align")

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return zip(self.sources.tolist(), self.keys.tolist())


def zipf_weights(catalog_size: int, exponent: float = 0.95) -> np.ndarray:
    """Normalised Zipf popularity weights for a key catalogue."""
    require_int(catalog_size, 1, name="catalog_size")
    require(exponent > 0, "exponent must be positive")
    ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def generate_requests(
    n_requests: int,
    n_peers: int,
    space: IdSpace,
    *,
    seed: int | np.random.Generator = 0,
    key_dist: str = "uniform",
    catalog_size: int = 10_000,
    zipf_exponent: float = 0.95,
) -> RequestTrace:
    """Generate a lookup trace.

    ``key_dist="uniform"`` reproduces the paper's workload: source peers
    and keys both uniform.  ``key_dist="zipf"`` hashes a catalogue of
    ``catalog_size`` synthetic file names and draws keys with Zipf
    popularity (hot files dominate), as in file-sharing deployments.
    """
    require_int(n_requests, 1, name="n_requests")
    require_int(n_peers, 1, name="n_peers")
    require_int(catalog_size, 1, name="catalog_size")
    require(key_dist in ("uniform", "zipf"), f"unknown key_dist {key_dist!r}")
    rng = make_rng(seed)
    sources = rng.integers(0, n_peers, size=n_requests, dtype=np.int64)
    if key_dist == "uniform":
        keys = rng.integers(0, space.size, size=n_requests, dtype=np.uint64)
    else:
        catalog = np.asarray(
            [space.hash_key(f"file-{i}") for i in range(catalog_size)], dtype=np.uint64
        )
        picks = rng.choice(catalog_size, size=n_requests, p=zipf_weights(catalog_size, zipf_exponent))
        keys = catalog[picks]
    return RequestTrace(sources=sources, keys=keys)
