"""The vectorized ring-frontier kernel shared by both batch routers.

One :class:`~repro.dht.ring_array.SortedRing` holds a sorted ``uint64``
id array; the scalar routing rule (``next_hop`` / ``greedy_route`` /
``predecessor_route``) walks it one lookup at a time, trying finger
levels high→low until one lands strictly inside ``(cur, key)``.  This
module runs the *same* rule over a whole cohort of lookups at once, and
finds the winning level without trying any: with ``pred`` the last
member strictly before the key and ``dp`` its clockwise distance from
``cur``, the scalar loop stops at level ``floor(log2(dp))``.

* That level wins: its finger start ``cur + 2**i`` is at distance
  ``2**i <= dp``, so the start's ring successor lies in ``[2**i, dp]``
  — strictly inside ``(cur, key)``.
* No higher level does: a start past ``pred`` has no member before the
  key in front of it, so its successor is at or beyond the key.

So every frontier step is the final-hop test plus one successor search
per finger lane (``SortedRing.successor_positions``) — no level loop.

Equivalence is exact, not approximate: the hop sequences are identical
position-for-position to the scalar rule, which stays untouched as the
oracle (pinned exhaustively on small id spaces and by the batch ≡
scalar property tests in ``tests/test_engine.py``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.dht.ring_array import SortedRing
from repro.util.validation import require

__all__ = ["HopSink", "route_cohort"]

#: Per-step callback: ``sink(lanes, prev_pos, next_pos)`` receives the
#: cohort-relative indices of the lanes that moved this frontier step
#: and their old/new ring positions.  Called once per step, so hop
#: accounting (latency, paths, per-layer counters) stays bulk.
HopSink = Callable[
    [npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64]], None
]


def _floor_pow2(x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """Highest power of two ``<= x`` per element (``x >= 1``), bit-exact.

    Or-shift smearing fills every bit below the top set bit; xor with
    the half-shifted smear keeps the top bit alone.  No floats: a
    ``float64`` ``log2`` rounds 64-bit distances.
    """
    x = x | (x >> np.uint64(1))
    for shift in (2, 4, 8, 16, 32):
        x |= x >> np.uint64(shift)
    return x ^ (x >> np.uint64(1))


def route_cohort(
    ring: SortedRing,
    start_pos: npt.NDArray[np.int64],
    keys: npt.NDArray[np.uint64],
    *,
    to_owner: bool,
    succ_list_r: int = 0,
    sink: HopSink | None = None,
) -> npt.NDArray[np.int64]:
    """Advance a cohort of lookups through one ring to completion.

    ``to_owner=True`` runs Chord's greedy rule to the key's ring
    successor (``SortedRing.greedy_route``); ``to_owner=False`` stops at
    the key's ring *predecessor* without taking the final hop
    (``SortedRing.predecessor_route`` — each HIERAS lower-layer loop).
    ``succ_list_r`` enables the §3.2 successor-list shortcut with the
    same semantics as the scalar methods.

    Returns the final ring position per lane.  ``sink`` is invoked once
    per frontier step with the lanes that moved; lanes settle out of the
    frontier as they reach their stop condition, so the loop runs
    ``max(per-lane hops)`` — not ``sum`` — steps.
    """
    cur = np.ascontiguousarray(start_pos, dtype=np.int64).copy()
    n_lanes = len(cur)
    if n_lanes == 0:
        return cur
    require(len(keys) == n_lanes, "start_pos and keys must align")
    ids = ring.ids
    n = len(ring)
    size_mask = np.uint64(ring.space.size - 1)
    zero = np.uint64(0)

    owner = ring.successor_positions(keys)
    if not to_owner and n == 1:
        # A single-member ring owns every key; the scalar loop returns
        # the start immediately.
        return cur
    active = cur != owner
    # The last member strictly before the key: the predecessor-stop
    # target, and in both modes what fixes each hop's finger level.
    pred = owner - 1
    pred[pred < 0] = n - 1
    pred_id = ids[pred]

    # Safety bound: greedy Chord takes at most ~bits finger hops plus a
    # successor walk; anything past n + bits steps is a kernel bug.
    max_steps = n + ring.space.bits + 2
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return cur
        cp = cur[idx]
        cur_id = ids[cp]
        d = (keys[idx] - cur_id) & size_mask
        succ = cp + 1
        succ[succ == n] = 0
        dsucc = (ids[succ] - cur_id) & size_mask
        if not to_owner:
            # Predecessor-stop checks, taken before any hop: sitting on
            # the key, or key in (cur, successor] — cur is the ring
            # predecessor and this layer's loop ends.
            stop = (d == zero) | (d <= dsucc)
            if stop.any():
                active[idx[stop]] = False
                go = ~stop
                idx = idx[go]
                if idx.size == 0:
                    continue
                cp = cp[go]
                cur_id = cur_id[go]
                d = d[go]
                succ = succ[go]
                dsucc = dsucc[go]
            target = pred[idx]
        else:
            target = owner[idx]

        m = idx.size
        nxt = np.empty(m, dtype=np.int64)
        rest = np.ones(m, dtype=bool)
        if succ_list_r > 0:
            # §3.2 successor-list shortcut: jump straight to the target
            # (owner / predecessor) when it is within r clockwise slots.
            gap = (target - cp) % n
            short = (gap > 0) & (gap <= succ_list_r)
            nxt[short] = target[short]
            rest &= ~short
        else:
            short = np.zeros(m, dtype=bool)
        if to_owner:
            # Final-hop rule: key in (cur, successor] → successor.
            fh = rest & (d <= dsucc)
            nxt[fh] = succ[fh]
            rest &= ~fh
        if rest.any():
            # Closest preceding finger.  d > dsucc puts the successor
            # strictly before the key, so pred != cur and dp >= dsucc >= 1.
            ri = np.flatnonzero(rest)
            cid = cur_id[ri]
            step = _floor_pow2((pred_id[idx[ri]] - cid) & size_mask)
            nxt[ri] = ring.successor_positions((cid + step) & size_mask)
        if sink is not None:
            sink(idx, cp, nxt)
        cur[idx] = nxt
        if to_owner:
            active[idx] = nxt != owner[idx]
        elif succ_list_r > 0:
            # Shortcut lanes landed exactly on the predecessor: done.
            # Finger lanes are re-examined by next step's stop checks.
            active[idx[short]] = False
    raise RuntimeError(
        f"frontier did not settle within {max_steps} steps (kernel bug)"
    )
