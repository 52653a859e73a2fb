"""A time-stepped file-sharing service over a ring DHT.

Assembles the full stack — topology, binning, HIERAS (or Chord),
replicated storage (:class:`~repro.replication.store.ReplicatedStore`),
Zipf workload, churn — into the application the paper's introduction
motivates, and measures what a *user* of the service sees round by
round: query success rate, lookup latency, and the repair work churn
causes.

The simulation advances in rounds.  Each round:

1. a fraction of online peers crash (their stored state is lost) and a
   fraction of offline peers rejoin;
2. the store rebalances every key onto its current replica group
   (Chord's background transfer);
3. online peers issue Zipf-distributed file queries; each query routes
   to the file key's owner, reads the chain tail and succeeds iff a
   replica survived.

Because peers only fail *between* repair rounds, the measured failure
rate isolates the replication factor's durability — reproducing the
CFS-style analysis the paper inherits from Chord (§3.2's "fault
tolerance ... of the underlying algorithm are still kept").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.replication.policy import ReplicationPolicy
from repro.replication.store import ReplicatedStore
from repro.util.rng import make_rng
from repro.util.validation import require
from repro.workloads.requests import zipf_weights

__all__ = ["RoundMetrics", "FileSharingSystem"]


@dataclass(frozen=True)
class RoundMetrics:
    """What the service delivered in one round."""

    round_index: int
    online_peers: int
    failed_this_round: int
    rejoined_this_round: int
    #: Replica writes the round's rebalance made.
    keys_moved_by_repair: int
    queries: int
    successes: int
    mean_latency_ms: float
    mean_hops: float

    @property
    def success_rate(self) -> float:
        """Fraction of queries answered from a surviving replica."""
        return self.successes / self.queries if self.queries else 1.0


class FileSharingSystem:
    """File-location service + churn + Zipf queries over one network.

    Parameters
    ----------
    network:
        A :class:`~repro.core.hieras.HierasNetwork` or
        :class:`~repro.dht.chord.ChordNetwork`.  HIERAS networks churn
        with their ring names preserved (a rejoining peer re-enters the
        rings its landmark orders named).
    catalog_size / zipf_exponent:
        The shared file catalogue and its popularity skew.
    replicas:
        Storage copies beyond the owner.
    """

    def __init__(
        self,
        network,
        *,
        catalog_size: int = 1000,
        zipf_exponent: float = 0.95,
        replicas: int = 2,
        seed: int = 0,
    ) -> None:
        require(catalog_size >= 1, "catalog_size must be >= 1")
        self.network = network
        self.rng = make_rng(seed)
        # Values whose every replica crashes are gone until someone
        # re-publishes them: rebalance copies only what a live peer holds.
        self.store = ReplicatedStore(network, ReplicationPolicy(replicas=replicas))
        self.catalog = [f"file-{i}" for i in range(catalog_size)]
        self.popularity = zipf_weights(catalog_size, zipf_exponent)
        for name in self.catalog:
            self.store.seed_key(name, {"name": name})
        self._offline: set[int] = set()
        self.history: list[RoundMetrics] = []

    # ------------------------------------------------------------------
    @property
    def online_peers(self) -> list[int]:
        """Currently-online peer indices."""
        return [
            p
            for p in range(len(self.network._id_of_peer))
            if self.network.is_alive(p)
        ]

    def _fail_peers(self, count: int) -> int:
        online = self.online_peers
        count = min(count, max(len(online) - 4, 0))
        if count <= 0:
            return 0
        victims = [int(v) for v in self.rng.choice(online, size=count, replace=False)]
        for victim in victims:
            self._offline.add(victim)
            self.store.drop_peer_state(victim)  # its disk is gone
        self.network.remove_peers(victims)  # one rebuild for the whole wave
        return count

    def _rejoin_peers(self, count: int) -> int:
        count = min(count, len(self._offline))
        if count <= 0:
            return 0
        peers = sorted(self._offline)
        picks = self.rng.choice(len(peers), size=count, replace=False)
        rejoining = [peers[int(i)] for i in picks]
        self._offline.difference_update(rejoining)
        # A rejoining host keeps its identity: same node id, same
        # attachment router, same ring names (HIERAS re-derives its
        # rings from the retained landmark orders).
        self.network.revive_peers(rejoining)  # one rebuild for the wave
        return count

    # ------------------------------------------------------------------
    def run_round(
        self,
        *,
        queries: int = 200,
        fail: int = 0,
        rejoin: int = 0,
    ) -> RoundMetrics:
        """Advance the service by one round (churn → rebalance → queries)."""
        failed = self._fail_peers(fail)
        rejoined = self._rejoin_peers(rejoin)
        moved = self.store.rebalance() if (failed or rejoined) else 0

        online = self.online_peers
        picks = self.rng.choice(
            len(self.catalog), size=queries, p=self.popularity
        )
        successes = 0
        latency = 0.0
        hops = 0
        for pick in picks:
            source = int(self.rng.choice(online))
            result = self.store.get(source, self.catalog[int(pick)])
            successes += result.value is not None
            latency += result.total_latency_ms
            hops += result.hops
        metrics = RoundMetrics(
            round_index=len(self.history),
            online_peers=len(online),
            failed_this_round=failed,
            rejoined_this_round=rejoined,
            keys_moved_by_repair=moved,
            queries=queries,
            successes=successes,
            mean_latency_ms=latency / queries if queries else 0.0,
            mean_hops=hops / queries if queries else 0.0,
        )
        self.history.append(metrics)
        return metrics

    def run(
        self,
        rounds: int,
        *,
        queries_per_round: int = 200,
        churn_per_round: int = 0,
    ) -> list[RoundMetrics]:
        """Run ``rounds`` rounds with symmetric churn.

        Each round fails ``churn_per_round`` peers and rejoins up to the
        same number of previously-failed peers, keeping the population
        roughly stable.
        """
        require(rounds >= 1, "rounds must be >= 1")
        out = []
        for _ in range(rounds):
            out.append(
                self.run_round(
                    queries=queries_per_round,
                    fail=churn_per_round,
                    rejoin=churn_per_round,
                )
            )
        return out

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Service-level summary over all rounds so far."""
        require(len(self.history) >= 1, "no rounds have run")
        total_q = sum(m.queries for m in self.history)
        total_ok = sum(m.successes for m in self.history)
        return {
            "rounds": float(len(self.history)),
            "availability": total_ok / total_q if total_q else 1.0,
            "mean_latency_ms": float(
                np.mean([m.mean_latency_ms for m in self.history])
            ),
            "mean_hops": float(np.mean([m.mean_hops for m in self.history])),
            "total_repair_moves": float(
                sum(m.keys_moved_by_repair for m in self.history)
            ),
        }
