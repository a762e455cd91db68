"""Vectorized octant arrays.

An *octant* is a cube in the unit root domain, identified by its integer
anchor coordinates (front-lower-left corner, in finest-cell units of
``2**-MAX_LEVEL``) and its refinement level.  :class:`OctantArray` stores
many octants in parallel NumPy arrays so that every tree operation in ALPS
(refine, coarsen, balance, partition, mesh extraction) is vectorized.

The canonical ordering is by Morton key, then by level — the pre-order
traversal of the octree shown in Figure 3 of the paper.
"""

from __future__ import annotations

import numpy as np

from .morton import MAX_LEVEL, ROOT_LEN, key_range_size, morton_encode

__all__ = ["OctantArray", "DIRECTIONS", "directions_for"]


def _child_offsets() -> np.ndarray:
    """(8, 3) array of child anchor offsets in units of the child length,
    ordered so children are visited in Morton order (x fastest)."""
    offs = np.empty((8, 3), dtype=np.int64)
    for i in range(8):
        offs[i] = (i & 1, (i >> 1) & 1, (i >> 2) & 1)
    return offs


_CHILD_OFFSETS = _child_offsets()

#: All 26 neighbor directions, grouped face (6), edge (12), corner (8).
DIRECTIONS = np.array(
    [
        (dx, dy, dz)
        for dz in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int64,
)


def directions_for(connectivity: str) -> np.ndarray:
    """Neighbor directions for a balance connectivity.

    ``"face"`` — 6 face neighbors; ``"edge"`` — faces + 12 edge neighbors
    (the paper's balance condition); ``"corner"`` — full 26-connectivity.
    """
    norms = np.abs(DIRECTIONS).sum(axis=1)
    if connectivity == "face":
        return DIRECTIONS[norms == 1]
    if connectivity == "edge":
        return DIRECTIONS[norms <= 2]
    if connectivity == "corner":
        return DIRECTIONS
    raise ValueError(f"unknown connectivity {connectivity!r}")


class OctantArray:
    """A set of octants stored as parallel arrays.

    Attributes
    ----------
    x, y, z:
        ``int64`` anchor coordinates in finest-cell units.
    level:
        ``int8`` refinement level, 0 (root) .. :data:`MAX_LEVEL`.
    """

    __slots__ = ("x", "y", "z", "level", "_keys")

    def __init__(self, x, y, z, level):
        self.x = np.ascontiguousarray(x, dtype=np.int64)
        self.y = np.ascontiguousarray(y, dtype=np.int64)
        self.z = np.ascontiguousarray(z, dtype=np.int64)
        self.level = np.ascontiguousarray(level, dtype=np.int8)
        if not (len(self.x) == len(self.y) == len(self.z) == len(self.level)):
            raise ValueError("coordinate arrays must have equal length")
        self._keys = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "OctantArray":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, np.zeros(0, dtype=np.int8))

    @classmethod
    def root(cls) -> "OctantArray":
        return cls([0], [0], [0], [0])

    @classmethod
    def uniform(cls, level: int) -> "OctantArray":
        """All ``8**level`` octants of a uniformly refined root, in Morton
        order."""
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level {level} out of range")
        n = 1 << level
        h = ROOT_LEN >> level
        # Build in Morton order directly by decoding sequential keys of the
        # level-sized lattice.
        idx = np.arange(n**3, dtype=np.uint64)
        from .morton import compact3

        x = compact3(idx).astype(np.int64) * h
        y = compact3(idx >> np.uint64(1)).astype(np.int64) * h
        z = compact3(idx >> np.uint64(2)).astype(np.int64) * h
        return cls(x, y, z, np.full(n**3, level, dtype=np.int8))

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, idx) -> "OctantArray":
        return OctantArray(self.x[idx], self.y[idx], self.z[idx], self.level[idx])

    def __repr__(self) -> str:
        lv = (
            f"levels {self.level.min()}..{self.level.max()}"
            if len(self)
            else "empty"
        )
        return f"OctantArray({len(self)} octants, {lv})"

    @staticmethod
    def concat(parts: list["OctantArray"]) -> "OctantArray":
        parts = [p for p in parts if len(p)]
        if not parts:
            return OctantArray.empty()
        return OctantArray(
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.y for p in parts]),
            np.concatenate([p.z for p in parts]),
            np.concatenate([p.level for p in parts]),
        )

    def pack(self) -> np.ndarray:
        """The octants as ``(n, 4)`` int64 rows ``x, y, z, level`` — what
        every exchange (boundary leaves, repartition, gather) ships."""
        level = self.level.astype(np.int64)
        return np.stack([self.x, self.y, self.z, level], axis=1)

    @staticmethod
    def unpack(rows: np.ndarray) -> "OctantArray":
        """Inverse of :meth:`pack`."""
        return OctantArray(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])

    def copy(self) -> "OctantArray":
        return OctantArray(self.x.copy(), self.y.copy(), self.z.copy(), self.level.copy())

    def equals(self, other: "OctantArray") -> bool:
        return (
            len(self) == len(other)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.level, other.level)
        )

    # -- geometry ---------------------------------------------------------------

    def keys(self) -> np.ndarray:
        """Morton keys of the anchors (cached)."""
        if self._keys is None or len(self._keys) != len(self):
            self._keys = morton_encode(self.x, self.y, self.z)
        return self._keys

    def key_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Half-open Morton key interval ``[start, end)`` of each octant."""
        start = self.keys()
        return start, start + key_range_size(self.level)

    def lengths(self) -> np.ndarray:
        """Edge lengths in finest-cell units."""
        return np.int64(ROOT_LEN) >> self.level.astype(np.int64)

    def centers(self) -> np.ndarray:
        """(N, 3) centers in the unit cube [0, 1]^3."""
        h = self.lengths()
        pts = np.stack(
            [self.x + h // 2, self.y + h // 2, self.z + h // 2], axis=1
        ).astype(np.float64)
        return pts / ROOT_LEN

    def corners_unit(self) -> np.ndarray:
        """(N, 8, 3) corner coordinates in the unit cube, vertex-ordered
        like the children (x fastest)."""
        h = self.lengths()
        anchors = np.stack([self.x, self.y, self.z], axis=1).astype(np.float64)
        out = anchors[:, None, :] + _CHILD_OFFSETS[None, :, :] * h[:, None, None]
        return out / ROOT_LEN

    def is_valid(self) -> bool:
        """Anchors aligned to their level and inside the root domain."""
        if len(self) == 0:
            return True
        if self.level.min() < 0 or self.level.max() > MAX_LEVEL:
            return False
        h = self.lengths()
        for c in (self.x, self.y, self.z):
            if c.min() < 0 or (c + h).max() > ROOT_LEN:
                return False
            if np.any(c % h != 0):
                return False
        return True

    # -- tree relations ------------------------------------------------------------

    def sort(self) -> "OctantArray":
        """Morton (pre-order traversal) sorted copy: by key, then level."""
        order = np.lexsort((self.level, self.keys()))
        return self[order]

    def parents(self) -> "OctantArray":
        """Parent of each octant (octants must not be at level 0)."""
        if len(self) and self.level.min() <= 0:
            raise ValueError("root octant has no parent")
        ph = np.int64(ROOT_LEN) >> (self.level.astype(np.int64) - 1)
        return OctantArray(
            self.x & ~(ph - 1), self.y & ~(ph - 1), self.z & ~(ph - 1), self.level - 1
        )

    def ancestors_at(self, level) -> "OctantArray":
        """Ancestor of each octant at the given (coarser or equal) level."""
        level = np.broadcast_to(np.asarray(level, dtype=np.int8), (len(self),))
        if np.any(level > self.level):
            raise ValueError("requested level finer than octant level")
        h = np.int64(ROOT_LEN) >> level.astype(np.int64)
        return OctantArray(
            self.x & ~(h - 1), self.y & ~(h - 1), self.z & ~(h - 1), level
        )

    def children(self) -> "OctantArray":
        """All 8 children of every octant, in Morton order, grouped by
        parent: result[8*i : 8*i+8] are the children of octant i."""
        if len(self) and self.level.max() >= MAX_LEVEL:
            raise ValueError("cannot refine past MAX_LEVEL")
        ch = np.int64(ROOT_LEN) >> (self.level.astype(np.int64) + 1)
        n = len(self)
        x = np.repeat(self.x, 8) + np.tile(_CHILD_OFFSETS[:, 0], n) * np.repeat(ch, 8)
        y = np.repeat(self.y, 8) + np.tile(_CHILD_OFFSETS[:, 1], n) * np.repeat(ch, 8)
        z = np.repeat(self.z, 8) + np.tile(_CHILD_OFFSETS[:, 2], n) * np.repeat(ch, 8)
        lv = np.repeat(self.level + 1, 8)
        return OctantArray(x, y, z, lv)

    def refine(self, mask: np.ndarray) -> "OctantArray":
        """Replace each marked octant by its 8 children where it stood.

        Children occupy exactly their parent's key interval, so a
        Morton-sorted array stays sorted without a re-sort; the keys are
        derived from the parents' (child ``c`` starts ``c`` child-ranges
        in) instead of re-encoded.
        """
        if np.any(self.level[mask] >= MAX_LEVEL):
            raise ValueError("cannot refine past MAX_LEVEL")
        count = np.where(mask, 8, 1)
        src = np.repeat(np.arange(len(self)), count)
        first = np.cumsum(count) - count
        c = np.arange(len(src)) - first[src]  # child id under a mark, else 0
        level = self.level[src] + mask[src]
        ch = (np.int64(ROOT_LEN) >> level.astype(np.int64)) * mask[src]
        out = OctantArray(
            self.x[src] + (c & 1) * ch,
            self.y[src] + ((c >> 1) & 1) * ch,
            self.z[src] + (c >> 2) * ch,
            level,
        )
        out._keys = self.keys()[src] + c.astype(np.uint64) * key_range_size(level)
        return out

    def sibling_ids(self) -> np.ndarray:
        """Which of its parent's 8 children each octant is (Morton order)."""
        h = self.lengths()
        sx = (self.x // h) & 1
        sy = (self.y // h) & 1
        sz = (self.z // h) & 1
        return (sx + 2 * sy + 4 * sz).astype(np.int64)

    def neighbor_anchors(self, direction: np.ndarray) -> tuple[np.ndarray, ...]:
        """Anchor coordinates of the same-level neighbor in ``direction``
        (a length-3 int vector), plus a validity mask for domain bounds."""
        h = self.lengths()
        nx = self.x + direction[0] * h
        ny = self.y + direction[1] * h
        nz = self.z + direction[2] * h
        ok = (
            (nx >= 0) & (nx < ROOT_LEN)
            & (ny >= 0) & (ny < ROOT_LEN)
            & (nz >= 0) & (nz < ROOT_LEN)
        )
        return nx, ny, nz, ok
