"""Forest of octrees (the P4EST core, Section VII).

A forest is one flat array: the leaves of all trees of a
:class:`~repro.forest.connectivity.Connectivity`, sorted along the
z-order curve threaded tree by tree — ``(tree_ids, octs)`` strictly
increasing in :func:`forest_key`.  :class:`Forest` is a contiguous
segment of that curve and owns every algorithm that needs no
communication (refine, coarsen, the 2:1 ripple, the checks); the serial
forest is the segment that covers the whole curve, and
:class:`~repro.forest.parforest.ParForest` is a segment plus a
communicator.  The octree is the one-tree forest on ``unit_cube()``:
serially (``Mesh.tree``, what the serial driver adapts) and distributed,
where the one-tree ``ParForest`` is the distributed octree of
:mod:`repro.octree.partree`.

Composite key encoding: leaves are restricted to level <= 19 so every
anchor key is a multiple of 64; ``fkey = (tree << 57) | (key >> 6)`` is
then an exact, order-preserving uint64 encoding for up to 128 trees —
the cubed sphere's 24 fit comfortably.

COARSENTREE is one vectorised pass over the segment's keys
(:meth:`Forest.coarsen`): a family never crosses a tree, so the sibling
test needs no per-tree loop, and each family's first child becomes the
parent where it stood.

2:1 balance is one frontier-driven ripple (:meth:`Forest._ripple`, the
serial and per-rank BALANCETREE of the forest and of the octree, its
one-tree case): neighbor sample points that leave a tree through a face
are transformed into the adjacent tree's coordinate system with the exact
lattice transforms of the connectivity and answered there.  Within trees
the full (face/edge/corner) condition is enforced; across trees the face
condition is (the one the DG face integration requires).
"""

from __future__ import annotations

import copy

import numpy as np

from ..octree import OctantArray, ROOT_LEN, morton_encode
from ..octree.morton import key_range_size
from ..octree.octants import directions_for
from ..octree.partree import curve_cut
from .connectivity import Connectivity

__all__ = ["Forest", "FOREST_MAX_LEVEL", "forest_key", "sample_queries"]

#: Deepest level the composite key encodes exactly.
FOREST_MAX_LEVEL = 19

_SHIFT = np.uint64(57)
_KSHIFT = np.uint64(6)


def forest_key(tree_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Composite (tree, Morton) ordering key (exact for level <= 19)."""
    t = np.asarray(tree_ids).astype(np.uint64)
    k = np.asarray(keys).astype(np.uint64, copy=False)
    return (t << _SHIFT) | (k >> _KSHIFT)


def sample_queries(
    tree_ids: np.ndarray,
    octs: OctantArray,
    conn: Connectivity,
    dirs: np.ndarray,
    level: np.ndarray,
    flo,
    fhi,
) -> tuple[np.ndarray, np.ndarray]:
    """``(fkeys, levels)`` of the neighbor samples of the source leaves
    that fall into the composite-key interval ``[flo, fhi)``: the center
    of each source's same-size neighbor region in every direction of
    ``dirs``, within its tree, and in the adjacent tree's frame (exact
    lattice transforms) where a face direction leaves the tree.  The leaf
    holding a sample must reach ``level - 1`` (``level``: one per source).
    Edge and corner exits of a tree are not sampled; they are
    face-balanced transitively."""
    h = octs.lengths()
    centers = np.stack([octs.x, octs.y, octs.z]) + h // 2
    p = centers[:, None, :] + dirs.T[:, :, None] * h  # (3, n_dirs, n)
    ok = ((p >= 0) & (p < ROOT_LEN)).all(axis=0)  # (n_dirs, n)
    level = np.broadcast_to(level, ok.shape)
    # forest_key(t, k) == forest_key(t, 0) | forest_key(0, k): the tree
    # part is shifted once per source, not once per sample
    qf = forest_key(0, morton_encode(p[0][ok], p[1][ok], p[2][ok]))
    qf |= np.broadcast_to(forest_key(tree_ids, 0), ok.shape)[ok]
    ql = level[ok]
    if (conn.face_tree >= 0).any():
        # the face directions that left the tree, through a glued face
        d, e = np.nonzero(~ok & (np.abs(dirs).sum(axis=1) == 1)[:, None])
        axis = np.abs(dirs[d]).argmax(axis=1)
        face = 2 * axis + (dirs[d, axis] > 0)
        nb = conn.face_tree[tree_ids[e], face]
        d, e, face, nb = (a[nb >= 0] for a in (d, e, face, nb))
        R, o = conn.face_R[tree_ids[e], face], conn.face_o[tree_ids[e], face]
        q = np.einsum("mij,mj->mi", R, p[:, d, e].T) + o
        qx = forest_key(nb, morton_encode(q[:, 0], q[:, 1], q[:, 2]))
        qf, ql = np.concatenate([qf, qx]), np.concatenate([ql, level[d, e]])
    keep = (qf >= flo) & (qf < fhi)
    return qf[keep], ql[keep]


class Forest:
    """A curve-ordered segment of forest leaves; complete
    (:meth:`is_complete`) when it covers every tree.

    Raises ``ValueError`` unless there is one tree id in
    ``[0, conn.n_trees)`` per leaf, no leaf is deeper than
    :data:`FOREST_MAX_LEVEL`, and the leaves are strictly increasing in
    :func:`forest_key`.
    """

    def __init__(self, conn: Connectivity, tree_ids: np.ndarray, octs: OctantArray):
        tree_ids = np.ascontiguousarray(tree_ids, dtype=np.int64)
        if tree_ids.shape != (len(octs),):
            raise ValueError("one tree id per leaf required")
        self.conn, self.tree_ids, self.octs, self._fkeys = conn, tree_ids, octs, None
        if len(octs):
            if tree_ids.min() < 0 or tree_ids.max() >= conn.n_trees:
                raise ValueError(f"tree ids must lie in [0, {conn.n_trees})")
            if octs.level.max() > FOREST_MAX_LEVEL:
                raise ValueError(f"forest supports levels <= {FOREST_MAX_LEVEL}")
            fkeys = self.fkeys()
            if np.any(fkeys[1:] <= fkeys[:-1]):
                raise ValueError("leaves must be strictly increasing in forest_key")

    def _with(self, tree_ids: np.ndarray, octs: OctantArray) -> "Forest":
        """The same kind of segment (and communicator) over other leaves,
        which the calling algorithm keeps valid: nothing is re-checked."""
        out = copy.copy(self)
        out.tree_ids, out.octs, out._fkeys = tree_ids, octs, None
        return out

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def _uniform_segment(level: int, lo: int, hi: int):
        """Tree ids and octants of leaves ``[lo, hi)`` of the uniform forest."""
        per_tree = OctantArray.uniform(level)
        idx = np.arange(lo, hi)
        return idx // len(per_tree), per_tree[idx % len(per_tree)]

    @classmethod
    def uniform(cls, conn: Connectivity, level: int) -> "Forest":
        n = conn.n_trees * 8**level
        return cls(conn, *cls._uniform_segment(level, 0, n))

    # -- flat views ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.octs)

    @property
    def n_trees(self) -> int:
        return self.conn.n_trees

    def fkeys(self) -> np.ndarray:
        """:func:`forest_key` of every leaf (cached)."""
        if self._fkeys is None:
            self._fkeys = forest_key(self.tree_ids, self.octs.keys())
        return self._fkeys

    def fkey_end(self) -> np.uint64:
        """End of the whole curve: the keys lie in ``[0, n_trees << 57)``."""
        return np.uint64(self.n_trees) << _SHIFT

    def tree_offsets(self) -> np.ndarray:
        """Start index of each tree's leaves in the flat order (and the end)."""
        return np.searchsorted(self.tree_ids, np.arange(self.n_trees + 1))

    def flat_levels(self) -> np.ndarray:
        return self.octs.level

    def _level_counts(self) -> np.ndarray:
        return np.bincount(self.octs.level, minlength=FOREST_MAX_LEVEL + 1)

    def level_histogram(self) -> dict[int, int]:
        return {lvl: int(n) for lvl, n in enumerate(self._level_counts()) if n}

    def is_complete(self) -> bool:
        """Do the leaves tile every tree exactly?"""
        if len(self) == 0:
            return False
        start = self.fkeys()
        end = start + (key_range_size(self.octs.level) >> _KSHIFT)
        tiled = np.all(end[:-1] == start[1:])
        return bool(start[0] == 0 and end[-1] == self.fkey_end() and tiled)

    def leaf_centers(self) -> np.ndarray:
        """(n, 3) physical leaf centers through the tree geometry maps."""
        return self.conn.tree_map(self.tree_ids, self.octs.centers())

    # -- adaptation -------------------------------------------------------------------

    def _checked_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        return mask

    def _split(self, mask: np.ndarray) -> "Forest":
        """Children replace each marked leaf where it stood: the order
        (and the cached Morton keys) survive without a re-sort."""
        tree_ids = np.repeat(self.tree_ids, np.where(mask, 8, 1))
        return self._with(tree_ids, self.octs.refine(mask))

    def refine(self, mask: np.ndarray) -> "Forest":
        """Refine flat-order-marked leaves (mask over all trees).  Raises
        the constructor's ``ValueError`` when a marked leaf is at
        :data:`FOREST_MAX_LEVEL`: its children would share one key."""
        mask = self._checked_mask(mask)
        if (self.octs.level[mask] >= FOREST_MAX_LEVEL).any():
            raise ValueError(f"forest supports levels <= {FOREST_MAX_LEVEL}")
        return self._split(mask) if mask.any() else self

    def _family_heads(self) -> np.ndarray:
        """Index of the first child of every sibling family whose eight
        leaves all lie in the segment: in a sorted leaf sequence, a first
        child followed 7 places on by an equal-level leaf 7 child-ranges
        away heads a family (a family never crosses a tree)."""
        fk, lv = self.fkeys(), self.octs.level.astype(np.int64)
        m = max(len(self) - 7, 0)
        child_range = key_range_size(lv[:m]) >> _KSHIFT
        return np.flatnonzero(
            (lv[:m] > 0)
            & (lv[7:] == lv[:m])
            & (fk[7:] - fk[:m] == np.uint64(7) * child_range)
            & (self.octs.sibling_ids()[:m] == 0)
        )

    def _marked_families(self, mask: np.ndarray) -> np.ndarray:
        """:meth:`_family_heads` of the families whose eight leaves are
        all marked."""
        heads = self._family_heads()
        return heads[mask[heads[:, None] + np.arange(8)].all(axis=1)]

    def _merge(self, heads: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> "Forest":
        """Drop the leaves ``[lo[i], hi[i])`` of the merged families, but
        their first children ``heads``, which become the parents where
        they stood: a parent's anchor is its first child's, so the curve
        order and the Morton keys survive without a re-sort."""
        n = len(self)
        cover = np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
        keep = np.cumsum(cover[:n]) == 0
        keep[heads] = True
        o = self.octs
        level = o.level.copy()
        level[heads] -= 1
        octs = OctantArray(o.x[keep], o.y[keep], o.z[keep], level[keep])
        octs._keys = o.keys()[keep]
        return self._with(self.tree_ids[keep], octs)

    def coarsen(self, mask: np.ndarray) -> tuple["Forest", int]:
        """COARSENTREE: replace complete families of 8 marked sibling
        leaves by their parent, in one pass over the whole segment.
        Returns the forest and the number of families merged."""
        heads = self._marked_families(self._checked_mask(mask))
        if not len(heads):
            return self, 0
        return self._merge(heads, heads, heads + 8), len(heads)

    # -- balance ----------------------------------------------------------------------

    def _ripple(
        self, dirs: np.ndarray, flo, fhi, extra, max_rounds: int
    ) -> tuple["Forest", int]:
        """Balance this segment against itself (``extra is None``) or,
        when it already is a fixed point, against the static remote
        boundary leaves ``extra``, splitting until a local fixed point.
        Only samples inside ``[flo, fhi)`` are answered; the others are
        their owner's job, delivered through ``extra``.  Returns the
        segment and the number of rounds.

        Frontier-driven, yet each round marks exactly what a full sweep
        would (DESIGN.md section 4e): a complete sibling family samples
        through its parent, and after a split only the violating samples
        and the split leaves' new families can violate."""
        if extra is None:
            lv = self.octs.level.astype(np.int64)
            first = self._family_heads()
            single = np.ones(len(self), dtype=bool)
            single[(first[:, None] + np.arange(8)).ravel()] = False
            tids = np.concatenate([self.tree_ids[first], self.tree_ids[single]])
            src = OctantArray.concat([self.octs[first].parents(), self.octs[single]])
            level = np.concatenate([lv[first], lv[single]])
        else:
            tids, src = extra.tree_ids, extra.octs
            level = src.level.astype(np.int64)
        pk, pl = sample_queries(tids, src, self.conn, dirs, level, flo, fhi)
        forest = self
        for rounds in range(max_rounds):
            idx = np.searchsorted(forest.fkeys(), pk, side="right") - 1
            viol = forest.octs.level[idx] < pl - 1
            if not viol.any():
                return forest, rounds
            mark = np.zeros(len(forest), dtype=bool)
            mark[idx[viol]] = True
            split = forest.octs[mark]
            nk, nl = sample_queries(
                forest.tree_ids[mark], split, self.conn, dirs,
                split.level.astype(np.int64) + 1, flo, fhi,
            )
            pk, pl = np.concatenate([pk[viol], nk]), np.concatenate([pl[viol], nl])
            forest = forest._split(mark)
        raise RuntimeError("balance did not converge")

    def balance(
        self, connectivity: str = "edge", max_rounds: int = 64
    ) -> tuple["Forest", int]:
        """Ripple-propagation 2:1 balance over the whole forest.

        Returns ``(forest, leaves_added)``.
        """
        dirs = directions_for(connectivity)
        forest, _ = self._ripple(dirs, np.uint64(0), self.fkey_end(), None, max_rounds)
        return forest, len(forest) - len(self)

    def _violations(self, dirs: np.ndarray) -> np.ndarray:
        """The full-sweep check: mark the leaves two or more levels
        coarser than a leaf whose neighbor sample they hold.  One direction
        at a time, so the transient is one sample per leaf."""
        fk, lv = self.fkeys(), self.octs.level.astype(np.int64)
        whole = np.uint64(0), self.fkey_end()
        mark = np.zeros(len(self), dtype=bool)
        for d in dirs[:, None]:
            qk, ql = sample_queries(self.tree_ids, self.octs, self.conn, d, lv, *whole)
            idx = np.searchsorted(fk, qk, side="right") - 1
            mark[idx[self.octs.level[idx] < ql - 1]] = True
        return mark

    def is_balanced(self, connectivity: str = "edge") -> bool:
        return not self._violations(directions_for(connectivity)).any()

    # -- partitioning -----------------------------------------------------------------

    def partition_assignments(
        self, p: int, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Rank of each leaf when the global (tree, Morton) order is cut
        into ``p`` equal segments (by count, or by cumulative weight).

        This is the forest PARTITIONTREE rule; used to visualize and
        account the drastically changing partitions of Figure 12.
        """
        total_w = 0.0 if weights is None else np.sum(weights)
        return curve_cut(p, len(self), weights, (0, 0.0), (len(self), total_w))
