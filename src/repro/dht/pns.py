"""Proximity neighbour selection: the side stacks' one way to fill a table slot.

Pastry's routing-table entries and Chord+PFS's fingers may each be
*any* node from a candidate set — the nodes sharing a prefix, or the
nodes in a finger interval — so both probe a random sample of the set
and keep the lowest-latency member (:func:`closest`), as deployed
systems do rather than measuring every candidate.
:func:`prefix_tables` builds Pastry's tables; :func:`digit` is its one
digit rule.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from repro.topology.base import LatencyModel

__all__ = ["digit", "closest", "prefix_tables"]

_Id = TypeVar("_Id", int, np.ndarray)


def digit(value: _Id, level: int, *, b: int, bits: int) -> _Id:
    """Base-``2**b`` digit of a ``bits``-bit id at ``level`` (0 = most significant).

    ``value`` is one id or a ``uint64`` array of them.
    """
    return (value >> (bits - b * (level + 1))) & ((1 << b) - 1)


def closest(
    latency: LatencyModel,
    rng: np.random.Generator,
    peer: int,
    candidates: np.ndarray,
    samples: int,
) -> int:
    """The candidate nearest ``peer`` among at most ``samples`` drawn without replacement."""
    if len(candidates) > samples:
        candidates = rng.choice(candidates, size=samples, replace=False)
    return int(candidates[int(np.argmin(latency.to_targets(peer, candidates)))])


def prefix_tables(
    ids: np.ndarray,
    *,
    b: int,
    bits: int,
    latency: LatencyModel,
    rng: np.random.Generator,
    samples: int,
) -> list[dict[tuple[int, int], int]]:
    """Per-peer ``(level, digit) -> peer`` tables, every entry a :func:`closest` pick.

    Nodes are grouped by id prefix level by level; within a group, the
    bucket of nodes whose next digit is ``d`` supplies the candidates
    for every other member's ``(level, d)`` entry.  The column of a
    peer's own digit stays empty.
    """
    n = len(ids)
    tables: list[dict[tuple[int, int], int]] = [dict() for _ in range(n)]
    groups: dict[int, np.ndarray] = {0: np.arange(n)}
    for level in range(bits // b):
        digits = digit(ids, level, b=b, bits=bits).astype(np.int64)
        next_groups: dict[int, np.ndarray] = {}
        for prefix, members in groups.items():
            if len(members) <= 1:
                continue
            member_digits = digits[members]
            buckets = {int(d): members[member_digits == d] for d in np.unique(member_digits)}
            for d, bucket in buckets.items():
                next_groups[(prefix << b) | d] = bucket
            for peer in members.tolist():
                for d, bucket in buckets.items():
                    if d != digits[peer]:  # a bucket of another digit never holds ``peer``
                        tables[peer][(level, d)] = closest(latency, rng, peer, bucket, samples)
        groups = next_groups
        if not groups:
            break
    return tables
