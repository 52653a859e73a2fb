"""Deterministic random-number-generator plumbing.

Reproducibility rule for the whole repository: **every** source of
randomness flows from a single integer seed through
:class:`numpy.random.SeedSequence`.  Components never call
``np.random.default_rng()`` without a seed, and sibling components get
*independent* streams (so adding a new consumer of randomness does not
perturb existing experiments).

Typical usage::

    factory = RngFactory(seed=42)
    topo_rng = factory.get("topology")
    ids_rng = factory.get("node-ids")
    requests_rng = factory.get("requests")

The stream returned for a given ``(seed, label)`` pair is stable across
runs and across machines.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "RngFactory"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (seed 0 — we deliberately do *not* fall back to OS
    entropy, experiments must be reproducible by default).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = 0
    return np.random.default_rng(int(seed))


def _label_to_int(label: str) -> int:
    """Map a textual label to a stable 64-bit integer."""
    digest = hashlib.sha1(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngFactory:
    """Named, independent random streams derived from a single seed.

    Each distinct ``label`` yields an independent
    :class:`numpy.random.Generator`; asking twice for the same label
    returns a *fresh* generator positioned at the start of the same
    stream, so components that re-request their stream restart it
    (callers that need continuation should hold onto the generator).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def get(self, label: str) -> np.random.Generator:
        """Return the generator for ``label`` (stable across runs)."""
        seq = np.random.SeedSequence([self.seed, _label_to_int(label)])
        return np.random.default_rng(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
