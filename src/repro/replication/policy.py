"""Replication policy: the frozen knob set of ``repro.replication``.

One :class:`ReplicationPolicy` fixes everything about how a
:class:`~repro.replication.store.ReplicatedStore` places and maintains
copies — how many replicas beyond the owner, which consistency
discipline writes and reads follow, where replicas live, and whether
writes for crashed replicas are queued as hints.  The knob set mirrors
the Conchord node configuration (SNIPPETS.md Snippet 1:
``replication_factor`` + ``consistency="chain"``) with the
HIERAS-specific addition of ring-scoped placement.

Consistency modes
-----------------
``"chain"``
    Writes propagate head→tail along the replica chain (owner first,
    successors in placement order) and **abort on the first broken
    link** — a crashed or partitioned chain member stops propagation
    and fails the write.  Reads contact the chain *tail* (the only node
    guaranteed to hold every committed write); an unreachable tail
    fails the read.
``"quorum"``
    The coordinator writes all replicas in parallel and succeeds once
    ``write_quorum`` acks arrive; reads gather ``read_quorum``
    responses, return the freshest version seen, and repair stale
    replicas in place.  Defaults are majority quorums over the group of
    ``replicas + 1`` copies.

Placement modes
---------------
``"successor"``
    The classic Chord/CFS discipline: replicas on the key owner's
    global-ring successors.
``"ring_scoped"``
    Replicas stay inside the owner's **lowest-layer HIERAS ring**
    (nearby nodes by landmark order), padded from the global successor
    list when the ring is too small.  On flat Chord the single global
    ring makes this identical to ``"successor"`` — the durability
    experiment exploits exactly that to isolate the placement effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require, require_int

__all__ = ["ReplicationPolicy"]

CONSISTENCY_MODES = ("chain", "quorum")
PLACEMENT_MODES = ("successor", "ring_scoped")


@dataclass(frozen=True)
class ReplicationPolicy:
    """Frozen replication configuration (hashable; safe to share).

    Attributes
    ----------
    replicas:
        Copies beyond the owner; the replica group holds
        ``replicas + 1`` copies in total.  ``0`` means owner-only
        storage (the durability experiment's loss baseline).
    consistency:
        ``"chain"`` or ``"quorum"`` (see module docstring).
    write_quorum, read_quorum:
        Ack counts quorum mode needs for a write/read to succeed.
        ``None`` (default) selects a majority of the replica group.
        Ignored by chain mode, which is all-or-abort by construction.
    placement:
        ``"successor"`` or ``"ring_scoped"`` (see module docstring).
    hinted_handoff:
        When True, a write that cannot reach a replica queues a *hint*
        — the missed ``(key, value, version)`` — and replays it when
        the target rejoins, instead of silently dropping the copy.
    """

    replicas: int = 2
    consistency: str = "chain"
    write_quorum: int | None = None
    read_quorum: int | None = None
    placement: str = "successor"
    hinted_handoff: bool = True

    def __post_init__(self) -> None:
        require_int(self.replicas, 0, name="replicas")
        require(
            self.consistency in CONSISTENCY_MODES,
            f"consistency must be one of {CONSISTENCY_MODES}, got {self.consistency!r}",
        )
        require(
            self.placement in PLACEMENT_MODES,
            f"placement must be one of {PLACEMENT_MODES}, got {self.placement!r}",
        )
        for name, quorum in (("write_quorum", self.write_quorum),
                             ("read_quorum", self.read_quorum)):
            if quorum is not None:
                require_int(quorum, 1, self.group_size, name=name)

    @property
    def group_size(self) -> int:
        """Total copies of every key (owner + replicas)."""
        return self.replicas + 1

    @property
    def effective_write_quorum(self) -> int:
        """Acks a quorum write needs (majority unless pinned)."""
        if self.write_quorum is not None:
            return self.write_quorum
        return self.group_size // 2 + 1

    @property
    def effective_read_quorum(self) -> int:
        """Responses a quorum read needs (majority unless pinned)."""
        if self.read_quorum is not None:
            return self.read_quorum
        return self.group_size // 2 + 1
