"""Shared low-level utilities for the HIERAS reproduction.

This package deliberately contains only dependency-free building blocks:

* :mod:`repro.util.ids` — identifier spaces and collision-free hashing.
* :mod:`repro.util.intervals` — circular (modular) interval arithmetic
  used by every ring-structured DHT in the repository.
* :mod:`repro.util.rng` — deterministic random-number-generator plumbing
  so that every experiment is exactly reproducible from a single seed.
* :mod:`repro.util.validation` — small argument-checking helpers with
  consistent error messages.
"""

from repro.util.ids import IdSpace, sha1_int
from repro.util.intervals import (
    clockwise_distance,
    in_interval,
    in_interval_open,
    ring_distance,
)
from repro.util.rng import RngFactory, make_rng
from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
)

__all__ = [
    "IdSpace",
    "sha1_int",
    "clockwise_distance",
    "in_interval",
    "in_interval_open",
    "ring_distance",
    "RngFactory",
    "make_rng",
    "require",
    "require_in_range",
    "require_positive",
]
