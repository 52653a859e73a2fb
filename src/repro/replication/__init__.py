"""Fault-aware replication with chain/quorum consistency (DESIGN.md §11).

PR 1 made *lookups* survive faults; this package makes *data* survive
them.  A frozen :class:`ReplicationPolicy` (replication factor,
``consistency="chain"|"quorum"``, ``placement="successor"|"ring_scoped"``,
hinted handoff) drives a :class:`ReplicatedStore` whose puts and gets
route per-replica via ``route_lossy`` under a
:class:`~repro.faults.injector.FaultInjector` — chain writes abort on
broken links, quorum reads repair stale replicas, and hinted handoff
replays missed writes when crashed replicas rejoin.  The ``durability``
experiment measures probability of data loss and read-staleness vs
replication factor × churn × consistency mode on both stacks.
"""

from repro.replication.placement import replica_group
from repro.replication.policy import ReplicationPolicy
from repro.replication.store import (
    GetResult,
    PutResult,
    ReplicaContact,
    ReplicatedStore,
    ReplicationStats,
)

__all__ = [
    "GetResult",
    "PutResult",
    "ReplicaContact",
    "ReplicatedStore",
    "ReplicationPolicy",
    "ReplicationStats",
    "replica_group",
]
