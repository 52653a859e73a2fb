"""Landmark nodes and the landmark table (paper §2.3).

A *landmark table* "simply records the IP addresses of all landmark
nodes" (§3.1); every joining node copies it from its bootstrap contact
and measures its distance to each live landmark.  This module models the
landmark set itself, including failures: when a landmark dies, newly
binned nodes use the survivors and previously binned nodes drop the dead
column from their orders (§2.3) — implemented here by masking the
distance matrix before handing it to the binning scheme.

A *logical landmark* option groups several geographically-close routers
into one landmark whose measured distance is the minimum over the group
(§2.3's fault-tolerance suggestion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.topology.base import LatencyModel
from repro.util.validation import require

__all__ = ["LandmarkSet"]


@dataclass
class LandmarkSet:
    """A well-known set of landmark machines.

    Attributes
    ----------
    routers:
        ``(n_landmarks,)`` router ids, or for logical landmarks a list
        of router-id groups (``members[k]`` backs landmark ``k``).
    alive:
        Liveness flags; failed landmarks are excluded from measurement.
    """

    routers: np.ndarray
    members: list[np.ndarray] | None = None
    alive: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.routers = np.asarray(self.routers, dtype=np.int64)
        require(len(self.routers) >= 1, "need at least one landmark")
        if self.alive is None:
            self.alive = np.ones(len(self.routers), dtype=bool)
        else:
            self.alive = np.asarray(self.alive, dtype=bool)
            require(len(self.alive) == len(self.routers), "alive mask length mismatch")
        if self.members is not None:
            require(
                len(self.members) == len(self.routers),
                "logical landmark groups must align with routers",
            )
            self.members = [np.asarray(m, dtype=np.int64) for m in self.members]
            require(all(len(m) >= 1 for m in self.members), "empty logical landmark")

    # ------------------------------------------------------------------
    @classmethod
    def logical(cls, groups: list[np.ndarray]) -> "LandmarkSet":
        """Build a set of logical landmarks from router groups.

        Each group acts as one landmark; its measured distance is the
        minimum over group members, so losing one member degrades the
        measurement instead of killing the landmark (§2.3).
        """
        require(len(groups) >= 1, "need at least one landmark group")
        require(all(len(g) >= 1 for g in groups), "empty logical landmark")
        return cls(routers=np.asarray([int(g[0]) for g in groups], dtype=np.int64), members=list(groups))

    # ------------------------------------------------------------------
    def measure(self, model: LatencyModel, node_routers: np.ndarray) -> np.ndarray:
        """Measure node→landmark distances over live landmarks only.

        Returns ``(n_nodes, n_alive)`` delays in ms.  For logical
        landmarks the distance is the minimum over live group members.
        """
        node_routers = np.asarray(node_routers, dtype=np.int64)
        groups = self.members if self.members is not None else self.routers[:, None]
        live = np.flatnonzero(self.alive)
        out = np.empty((len(node_routers), len(live)), dtype=np.float64)
        for col, k in enumerate(live):
            targets = [np.full(len(node_routers), m, dtype=np.int64) for m in groups[k]]
            out[:, col] = np.min([model.pairs(node_routers, t) for t in targets], axis=0)
        return out
