"""The vectorized ring-frontier kernel under both batch routers.

A :class:`~repro.dht.ring_array.RingLayer` holds every ring of one
hierarchy layer in one sorted ``uint64`` id array (a single ring — flat
Chord, HIERAS's global layer — is the one-ring layer).  The scalar
routing rule (:meth:`SortedRing.walk
<repro.dht.ring_array.SortedRing.walk>`, the oracle this kernel is
proven against and shares no code with) walks one ring one lookup at a
time, trying finger levels high→low until one lands strictly inside
``(cur, key)``.  This module runs the *same* rule over a whole cohort of lookups at once — each lane inside
its own ring's slice, all rings of the layer in one frontier — and
replaces the scalar rule's tests by what they decide.  With ``pred``
the last member strictly before the key, searched once per lane:

* The key lies in ``(cur, successor]`` exactly when ``cur`` is
  ``pred``, so the final-hop test and the predecessor stop are slot
  comparisons — no per-step id arithmetic.
* Otherwise the scalar level loop stops at level ``floor(log2(dp))``,
  ``dp`` the clockwise distance from ``cur`` to ``pred``.  That level
  wins: its finger start ``cur + 2**i`` is at distance ``2**i <= dp``,
  so the start's ring successor lies in ``[2**i, dp]`` — strictly
  inside ``(cur, key)``.  No higher level does: a start past ``pred``
  has no member before the key in front of it, so its successor is at
  or beyond the key.

So every active lane hops at every frontier step — to its goal, or to
the one finger a successor search finds (``RingLayer.successor_slots``)
— with no level loop and no loop over rings: a call takes as many steps
as its longest lane takes hops, however many rings the lanes are in.

Equivalence is exact, not approximate: the hop sequences are identical
position-for-position to the scalar rule, which stays untouched as the
oracle (pinned exhaustively on small id spaces, one ring at a time and
many rings side by side, and by the batch ≡ scalar property tests in
``tests/test_engine.py``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from repro.dht.ring_array import RingLayer, SortedRing
from repro.util.validation import require

__all__ = ["HopSink", "route_cohort", "route_layer"]

#: Per-step callback: ``sink(lanes, prev_slot, next_slot)`` receives the
#: cohort-relative indices of the lanes that moved this frontier step
#: and their old/new slots in the layer view (ring positions, on a
#: single ring).  Called once per step, so hop accounting (latency,
#: paths, per-layer counters) stays bulk.
HopSink = Callable[
    [npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.int64]], None
]


#: A float64's sign and exponent bits: clearing the rest rounds a
#: positive float down to a power of two.
_EXPONENT = np.uint64(0xFFF0_0000_0000_0000)


def _floor_pow2(x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """Highest power of two ``<= x`` per element (``x >= 1``), bit-exact.

    ``x`` as a float64 with its mantissa bits cleared is the top power
    of two of that float — exact below ``2**53``.  Above, the conversion
    rounds to nearest and may round up to the next power of two, so the
    power is halved where it exceeds ``x``; it is capped at ``2**63``,
    as a distance near ``2**64`` rounds to ``2**64``, past ``uint64``.
    Six whole-array numpy calls; not ``np.frexp``, a libm call per
    element that costs ~3x as much past ~20 000 lanes.
    """
    power = (x.astype(np.float64).view(np.uint64) & _EXPONENT).view(np.float64)
    top = np.minimum(power, 2.0**63).astype(np.uint64)
    return top >> (top > x)


def route_cohort(
    ring: SortedRing,
    start_pos: npt.NDArray[np.int64],
    keys: npt.NDArray[np.uint64],
    *,
    to_owner: bool,
    succ_list_r: int = 0,
    sink: HopSink | None = None,
) -> npt.NDArray[np.int64]:
    """:func:`route_layer` on a single ring: slots are ring positions."""
    return route_layer(
        ring.layer_view(), start_pos, keys, None,
        to_owner=to_owner, succ_list_r=succ_list_r, sink=sink,
    )


def route_layer(
    view: RingLayer,
    start: npt.NDArray[np.int64],
    keys: npt.NDArray[np.uint64],
    code: npt.NDArray[np.int32] | None,
    *,
    to_owner: bool,
    succ_list_r: int = 0,
    sink: HopSink | None = None,
) -> npt.NDArray[np.int64]:
    """Advance a cohort of lookups through one layer's rings to completion.

    Lane ``i`` starts at slot ``start[i]`` of ``view`` and stays inside
    the ring that slot belongs to, ring ``code[i]`` (``None`` on a
    one-ring layer).  ``to_owner=True`` runs Chord's greedy rule to the
    key's ring successor; ``to_owner=False`` stops at the key's ring
    *predecessor* without taking the final hop (each HIERAS loop).
    ``succ_list_r`` enables the §3.2 successor-list shortcut.  All three
    mean what they mean to the scalar ``SortedRing.walk`` under perfect
    contacts.

    Returns the final slot per lane.  ``sink`` is invoked once per
    frontier step with the lanes that moved; lanes settle out of the
    frontier as they reach their stop condition, so the loop runs
    ``max(per-lane hops)`` — not ``sum`` — steps, however many rings
    the lanes are spread over.
    """
    cur = np.array(start, dtype=np.int64)  # a copy: the caller keeps its start
    n_lanes = len(cur)
    if n_lanes == 0:
        return cur
    require(len(keys) == n_lanes, "start and keys must align")
    ids = view.ids
    size_mask = np.uint64(view.space.size - 1)

    # ``pred`` is the last member strictly before the key: the
    # predecessor-stop target, and in both modes what fixes each hop's
    # finger level.  The key lies in (cur, successor] exactly when cur
    # is that member, so the scalar rule's distance tests become slot
    # comparisons and the keys are searched once, here.
    raw = view.successor_slots(keys, code)
    pred = view.pred_of[raw]
    owner = view.owner_of[raw]
    pred_id = ids[pred]
    # A lane that starts on the key's owner is done in either mode (the
    # scalar predecessor loop's destination check) — every lane of a
    # one-member ring is.
    active = cur != owner
    if to_owner:
        goal = owner
    else:
        goal = pred
        active &= cur != pred

    def fingers(
        lanes: npt.NDArray[np.int64], at: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.int64]:
        # Closest preceding finger of ``lanes``, sitting at slots ``at``.
        # A lane here is neither on the owner nor on pred, so pred lies
        # dp >= 1 ahead of it and the finger lands in (cur, pred] —
        # never on the owner.
        cid = ids[at]
        step = _floor_pow2((pred_id[lanes] - cid) & size_mask)
        # Masked into the space by construction: the unchecked search.
        raw = view._search((cid + step) & size_mask, None if code is None else code[lanes])
        return view.owner_of[raw]

    # Safety bound: greedy Chord takes at most ~bits finger hops plus a
    # successor walk; anything past n + bits steps is a kernel bug.
    max_steps = int(view.sizes.max()) + view.space.bits + 2
    for _ in range(max_steps):
        idx = active.nonzero()[0]
        if idx.size == 0:
            return cur
        # Every active lane hops: straight to its goal, or to a finger.
        cp = cur[idx]
        target = goal[idx]
        # Final-hop rule: key in (cur, successor] → successor, the owner.
        jump = cp == pred[idx] if to_owner else None
        if succ_list_r > 0:
            # §3.2 successor-list shortcut: the goal is within r
            # clockwise slots of cur in the lane's own ring (and is not
            # cur itself: the lane is active).
            gap = (target - cp) % view.sizes[0 if code is None else code[idx]]
            short = gap <= succ_list_r
            jump = short if jump is None else jump | short
        if jump is None:
            nxt = fingers(idx, cp)
        else:
            nxt = target.copy()
            ri = (~jump).nonzero()[0]
            if ri.size:
                nxt[ri] = fingers(idx[ri], cp[ri])
        if sink is not None:
            sink(idx, cp, nxt)
        cur[idx] = nxt
        active[idx] = nxt != target
    raise RuntimeError(
        f"frontier did not settle within {max_steps} steps (kernel bug)"
    )
