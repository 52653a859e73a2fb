"""Tapestry baseline (paper reference [14]).

The paper's related work and future work name Tapestry, with Pastry, as
the existing locality-aware DHTs to compare against.  Tapestry routes by
resolving the destination id one digit at a time — like Pastry — but
differs in two ways that matter for a comparison:

* **Surrogate routing** instead of leaf sets: when the required routing
  table entry is empty, the message deterministically "routes around
  the hole" by trying the next digit value (wrapping), at the same
  level; the node reached when every entry at the current level maps to
  itself is the key's unique *surrogate root* — ownership needs no
  neighbour sets at all.
* Ids are resolved from the **least-significant digit upward** in
  classic Plaxton/Tapestry fashion (we follow the common
  most-significant-first presentation used in later Tapestry papers; the
  mechanics are symmetric).

Like :mod:`repro.dht.pastry`, routing-table entries are chosen with
proximity (lowest measured latency among candidates), which is
Tapestry's "closest digit-matching neighbour" rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht import pns
from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require, require_int

__all__ = ["TapestryParams", "TapestryNetwork"]


@dataclass(frozen=True)
class TapestryParams:
    """Structural parameters of a Tapestry overlay."""

    #: Bits per digit (base ``2**b``); Tapestry deployments used b=4.
    b: int = 4
    #: PNS candidate sample size per routing-table entry.
    pns_samples: int = 8

    def __post_init__(self) -> None:
        require_int(self.b, 1, 8, name="b")
        require_int(self.pns_samples, 1, name="pns_samples")


class TapestryNetwork(DHTNetwork):
    """A static Tapestry overlay with surrogate routing."""

    span_label = "tapestry"

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        params: TapestryParams | None = None,
        latency: LatencyModel | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.params = params or TapestryParams()
        require(
            space.bits % self.params.b == 0,
            f"id width {space.bits} must be a multiple of digit width {self.params.b}",
        )
        ids = np.asarray(ids, dtype=np.uint64)
        require(len(ids) >= 1, "need at least one peer")
        require(len(np.unique(ids)) == len(ids), "node ids must be unique")
        self.space = space
        self.latency = latency if latency is not None else ZeroLatency()
        self._id_of_peer = ids.copy()
        self._levels = space.bits // self.params.b
        self._base = 1 << self.params.b
        self._tables = pns.prefix_tables(
            ids, b=self.params.b, bits=space.bits, latency=self.latency,
            rng=make_rng(seed), samples=self.params.pns_samples, own_digit=True,
        )

    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Number of peers."""
        return len(self._id_of_peer)

    def id_of(self, peer: int) -> int:
        """Node id of ``peer``."""
        return int(self._id_of_peer[peer])

    def _next_hop(self, cur: int, key: int) -> int | None:
        """One Tapestry routing step; None when ``cur`` is the root.

        Resolve the first digit of ``key`` that differs from ``cur``'s
        id; if the exact entry is missing, surrogate-route by trying the
        next digit values in cyclic order at the same level (restricted
        to entries the node actually has, plus itself).
        """
        cur_id = self.id_of(cur)
        b, bits = self.params.b, self.space.bits
        for level in range(self._levels):
            want = pns.digit(key, level, b=b, bits=bits)
            have = pns.digit(cur_id, level, b=b, bits=bits)
            if want == have:
                continue
            entry = self._tables[cur].get((level, want))
            if entry is not None:
                return entry
            # Surrogate: walk digit values cyclically until one resolves
            # (or we come back to our own digit — then we keep the level
            # resolved as ourselves and continue to the next level).
            for offset in range(1, self._base):
                d = (want + offset) % self._base
                if d == have:
                    break
                entry = self._tables[cur].get((level, d))
                if entry is not None:
                    return entry
            continue
        return None

    def owner_of(self, key: int) -> int:
        """The key's surrogate root (unique, neighbour-set-free)."""
        key = self.space.wrap(int(key))
        return self._walk(0, lambda cur: self._next_hop(cur, key))[-1]

    def route(self, source: int, key: int) -> RouteResult:
        """Tapestry prefix routing with surrogate holes."""
        key = self.space.wrap(int(key))
        return self._routed(source, key, self._walk(source, lambda cur: self._next_hop(cur, key)))
