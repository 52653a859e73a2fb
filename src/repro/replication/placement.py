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

from repro.replication.policy import ReplicationPolicy

__all__ = ["global_successors", "group_at", "replica_group"]


def global_successors(network: Any, peer: int, r: int) -> list[int]:
    """``peer``'s ``r`` nearest global-ring successors on either stack.

    :meth:`~repro.dht.chord.ChordNetwork.successor_list` answers for
    both: HIERAS inherits it, and its global ring (layer 1) is the ring
    every member is on.
    """
    if r <= 0:
        return []
    return list(network.successor_list(peer, r))


def replica_group(network: Any, key: int, policy: ReplicationPolicy) -> list[int]:
    """The ordered replica group of ``key`` under ``policy``: :func:`group_at`
    its owner (the believed global successor of the key)."""
    return group_at(network, int(network.owner_of(key)), policy)


def group_at(network: Any, owner: int, policy: ReplicationPolicy) -> list[int]:
    """The ordered replica group headed by ``owner``, for a caller that
    a perfect route has already told who owns the key.

    Duplicates are dropped while preserving order — on tiny rings the
    successor walk wraps and would otherwise re-include the owner — so
    the group may be shorter than ``policy.group_size`` when the network
    itself is smaller.
    """
    group = [owner]
    if policy.replicas <= 0:
        return group
    if policy.placement == "ring_scoped":
        candidates = list(network.ring_successor_list(owner, policy.replicas))
        # The owner's low-layer ring may be smaller than the group; pad
        # with global successors so the replication factor is honoured.
        if len(candidates) < policy.replicas:
            candidates += global_successors(network, owner, policy.replicas + len(candidates))
    else:
        candidates = global_successors(network, owner, policy.replicas)
    for peer in candidates:
        peer = int(peer)
        if peer not in group:
            group.append(peer)
        if len(group) == policy.group_size:
            break
    return group
