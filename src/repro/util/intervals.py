"""Circular (modular) interval arithmetic.

Chord — and therefore HIERAS, which runs Chord's routing rule inside
every ring — constantly asks questions of the form "does id ``x`` lie in
the arc from ``a`` to ``b`` walking clockwise?".  On a circle these
predicates cannot be answered with plain comparisons because intervals
may wrap around zero.  This module centralises the (easy to get subtly
wrong) logic; everything else in the repository builds on these five
functions.

All functions take the ``size`` of the identifier space (``2**bits``)
explicitly rather than an :class:`~repro.util.ids.IdSpace` so they stay
usable from vectorised NumPy code without attribute lookups in hot loops.
"""

from __future__ import annotations

__all__ = [
    "clockwise_distance",
    "ring_distance",
    "in_interval",
    "in_interval_open",
]


def clockwise_distance(a: int, b: int, size: int) -> int:
    """Number of steps walking clockwise (increasing ids) from ``a`` to ``b``.

    ``clockwise_distance(a, a, size) == 0`` and the result is always in
    ``[0, size)``.
    """
    return (b - a) % size


def ring_distance(a: int, b: int, size: int) -> int:
    """Shortest distance between ``a`` and ``b`` in either direction."""
    d = (b - a) % size
    return min(d, size - d)


def in_interval_open(x: int, a: int, b: int, size: int) -> bool:
    """True iff ``x`` lies strictly inside the clockwise arc ``(a, b)``.

    When ``a == b`` the open interval covers the whole ring except ``a``
    itself (Chord's convention: a single-node ring owns everything).
    """
    if a == b:
        return x != a
    return clockwise_distance(a, x, size) > 0 and clockwise_distance(a, x, size) < clockwise_distance(a, b, size)


def in_interval(x: int, a: int, b: int, size: int) -> bool:
    """True iff ``x`` lies in the half-open clockwise arc ``(a, b]``.

    This is Chord's ownership predicate: node ``s`` is responsible for
    key ``k`` iff ``k ∈ (predecessor(s), s]``.  When ``a == b`` the arc
    is the full ring (every ``x`` qualifies), matching the single-node
    degenerate case.
    """
    if a == b:
        return True
    return 0 < clockwise_distance(a, x, size) <= clockwise_distance(a, b, size)

