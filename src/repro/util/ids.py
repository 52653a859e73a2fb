"""Identifier spaces and collision-free hashing.

Every DHT in this repository (Chord, CAN's zone ownership keys, Pastry,
and HIERAS itself) places nodes and keys on a circular identifier space
of ``2**bits`` points.  The paper (§3.1) uses SHA-1 as the collision-free
hash; we do the same, truncating the 160-bit digest to the configured
width.  Simulations typically use 32- or 64-bit spaces, which keeps the
arithmetic in machine integers while preserving Chord's behaviour (ids
are unique per node, so the ring geometry is identical up to relabeling).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import numpy.typing as npt

from repro.util.validation import require, require_in_range

__all__ = ["IdSpace", "sha1_int", "DEFAULT_BITS"]

#: Default identifier width used throughout the simulations.  32 bits is
#: wide enough that 10 000 random node ids collide with probability
#: < 1.2 % per draw (and the samplers below reject collisions anyway)
#: while keeping every id a cheap machine integer.
DEFAULT_BITS = 32


def sha1_int(data: bytes | str, bits: int = DEFAULT_BITS) -> int:
    """Hash ``data`` with SHA-1 and truncate the digest to ``bits`` bits.

    This is the paper's "collision free algorithm such as SHA-1" (§3.1)
    used to generate node ids, file keys, and ring ids.

    Parameters
    ----------
    data:
        Raw bytes or text (text is UTF-8 encoded first).
    bits:
        Width of the target identifier space; must be in ``[1, 160]``.

    Returns
    -------
    int
        The top ``bits`` bits of the SHA-1 digest, as a Python int.
    """
    require_in_range(bits, 1, 160, name="bits")
    if isinstance(data, str):
        data = data.encode("utf-8")
    digest = hashlib.sha1(data).digest()
    value = int.from_bytes(digest, "big")
    return value >> (160 - bits)


@dataclass(frozen=True)
class IdSpace:
    """A circular identifier space of ``2**bits`` points.

    Instances are immutable and cheap; they bundle the modulus together
    with the hashing and sampling operations every DHT needs.

    Examples
    --------
    >>> space = IdSpace(bits=8)
    >>> space.size
    256
    >>> space.hash_key("some-file.txt") < 256
    True
    """

    bits: int = DEFAULT_BITS
    size: int = field(init=False)

    def __post_init__(self) -> None:
        # A float or a bool fails here with the range's message, not later
        # as a shift's TypeError or as a space of two points.
        integral = isinstance(self.bits, Integral) and not isinstance(self.bits, bool)
        require(integral and 1 <= self.bits <= 160, f"bits must be in [1, 160], got {self.bits!r}")
        object.__setattr__(self, "size", 1 << self.bits)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def hash_key(self, key: bytes | str) -> int:
        """Map an application key (e.g. a file name) onto the space."""
        return sha1_int(key, self.bits)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def wrap(self, value: int) -> int:
        """Reduce ``value`` modulo the space size."""
        return value & (self.size - 1)

    def finger_start(self, node_id: int, index: int) -> int:
        """Start of the ``index``-th Chord finger interval (1-based).

        Chord's finger ``i`` of node ``n`` targets ``n + 2**(i-1)``
        (mod ``2**bits``); see Stoica et al. and paper Table 2.
        """
        require_in_range(index, 1, self.bits, name="index")
        return self.wrap(node_id + (1 << (index - 1)))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_unique_ids(self, count: int, rng: np.random.Generator) -> npt.NDArray[np.uint64]:
        """Draw ``count`` distinct ids uniformly at random.

        Collisions are rejected and redrawn so the result always holds
        exactly ``count`` distinct ids.  The result is returned in
        **random order**, deliberately: callers typically zip it with an
        independently generated peer attribute (attachment router,
        landmark order, …), and returning sorted ids would correlate id
        adjacency with that attribute — e.g. making id-neighbours
        topology-neighbours, which silently falsifies every latency
        experiment.  Sort at the call site if you need order.

        Raises
        ------
        ValueError
            If ``count`` exceeds the size of the space.
        """
        require(count >= 0, f"count must be >= 0, got {count}")
        require(
            count <= self.size,
            f"cannot draw {count} unique ids from a space of {self.size}",
        )
        ids: set[int] = set()
        # Oversample slightly; loop until we have enough distinct ids.
        while len(ids) < count:
            need = count - len(ids)
            draw = rng.integers(0, self.size, size=max(need + 16, int(need * 1.1)))
            ids.update(int(v) for v in draw)
            while len(ids) > count:
                ids.pop()
        # Set order: int hashing is stable across runs, and rng.shuffle below
        # re-permutes it; sorting first would silently reseed every artifact.
        out = np.fromiter(ids, dtype=np.uint64, count=count)
        rng.shuffle(out)
        return np.asarray(out, dtype=np.uint64)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def validate_id(self, value: int, *, name: str = "id") -> int:
        """Check that ``value`` lies inside the space and return it."""
        require_in_range(int(value), 0, self.size - 1, name=name)
        return int(value)
