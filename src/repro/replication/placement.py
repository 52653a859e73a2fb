"""Replica placement: who holds the copies of one key.

The replica group of a key is an **ordered, duplicate-free** list of
peers, owner first.  Order matters twice over: chain writes propagate
along it head→tail, and quorum reads contact peers in it until enough
respond — so the group must be a pure function of (network membership,
key, policy) for runs to replay deterministically.

Two placements are supported (policy knob ``placement``):

``"successor"``
    Owner + its ``replicas`` nearest **global-ring** successors — the
    classic Chord/CFS discipline the paper inherits "for free" (§3.2).
``"ring_scoped"``
    Owner + successors drawn from the owner's **lowest-layer HIERAS
    ring** first (nodes the binning scheme judged nearby), padded from
    the global successor list when the ring is smaller than the group.
    This is the HIERAS-specific question the ROADMAP poses: replicas on
    topologically-close nodes are cheap to write to — but a correlated
    regional failure can take out the whole ring, so locality cuts both
    ways.  The durability experiment measures which effect wins.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.replication.policy import ReplicationPolicy

__all__ = ["group_at", "groups_at", "replica_group"]


def replica_group(network: Any, key: int, policy: ReplicationPolicy) -> list[int]:
    """The ordered replica group of ``key`` under ``policy``: :func:`group_at`
    its owner (the believed global successor of the key)."""
    return group_at(network, int(network.owner_of(key)), policy)


def group_at(network: Any, owner: int, policy: ReplicationPolicy) -> list[int]:
    """The ordered replica group headed by ``owner``, for a caller that
    a perfect route has already told who owns the key: the one-row case
    of :func:`groups_at`."""
    row = groups_at(network, np.asarray([owner], dtype=np.int64), policy)[0]
    group: list[int] = row[row >= 0].tolist()
    return group


def groups_at(
    network: Any, owners: npt.NDArray[np.int64], policy: ReplicationPolicy
) -> npt.NDArray[np.int64]:
    """The ordered replica group headed by each of ``owners``: row ``i``
    holds ``owners[i]`` and its replicas in placement order, ``-1`` past
    the end of a group cut short.

    Duplicates are dropped while preserving order — on tiny rings the
    successor walk wraps and would otherwise re-include the owner — so
    a group may be shorter than ``policy.group_size`` when the network
    itself is smaller.
    """
    owners = np.asarray(owners, dtype=np.int64)
    r = policy.replicas
    if policy.placement == "successor":
        # Distinct, never the owner, and any -1s come last: a group as is.
        group: npt.NDArray[np.int64] = np.concatenate(
            [owners[:, None], network.successor_lists(owners, r)], axis=1
        )
        return group
    # The owner's low-layer ring may be smaller than the group; pad with
    # global successors so the replication factor is honoured (a ring of
    # k < r others lacks r - k peers, and the first r + k global
    # successors already hold that many new ones).
    candidates = np.concatenate(
        [network.successor_lists(owners, r, lowest=True), network.successor_lists(owners, 2 * r)],
        axis=1,
    )
    width = candidates.shape[1]
    seen = (candidates[:, :, None] == candidates[:, None, :]) & np.tri(width, width, -1, dtype=bool)
    fresh = (candidates >= 0) & (candidates != owners[:, None]) & ~seen.any(axis=2)
    rank = np.cumsum(fresh, axis=1)
    lane, col = np.nonzero(fresh & (rank <= r))
    group = np.full((len(owners), r + 1), -1, dtype=np.int64)
    group[:, 0] = owners
    group[lane, rank[lane, col]] = candidates[lane, col]
    return group
