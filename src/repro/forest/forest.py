"""Forest of octrees (the P4EST core, Section VII).

A forest holds one complete linear octree per tree of a
:class:`~repro.forest.connectivity.Connectivity`.  The global leaf order
is (tree id, Morton key) — the z-order curve threaded tree by tree — which
is what partitioning cuts into equal segments.

2:1 balance is enforced with the same ripple propagation as the single
octree, extended across trees: neighbor sample points that leave a tree
through a face are transformed into the adjacent tree's coordinate system
with the exact lattice transforms of the connectivity and marked there.
Within trees the full (face/edge/corner) condition is enforced; across
trees the face condition is (the one the DG face integration requires).
"""

from __future__ import annotations

import numpy as np

from ..octree import LinearOctree, ROOT_LEN
from ..octree.balance import _violating_leaf_marks
from ..octree.octants import directions_for
from .connectivity import Connectivity

__all__ = ["Forest"]


class Forest:
    """A complete forest: one :class:`LinearOctree` per connectivity tree."""

    def __init__(self, conn: Connectivity, trees: list[LinearOctree]):
        if len(trees) != conn.n_trees:
            raise ValueError("one octree per connectivity tree required")
        self.conn = conn
        self.trees = trees

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, conn: Connectivity, level: int) -> "Forest":
        return cls(conn, [LinearOctree.uniform(level) for _ in range(conn.n_trees)])

    # -- flat views ----------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(t) for t in self.trees)

    @property
    def n_trees(self) -> int:
        return self.conn.n_trees

    def tree_offsets(self) -> np.ndarray:
        """Start index of each tree's leaves in the flat global order."""
        return np.concatenate([[0], np.cumsum([len(t) for t in self.trees])])

    def leaf_tree_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_trees), [len(t) for t in self.trees])

    def flat_levels(self) -> np.ndarray:
        return np.concatenate([t.levels for t in self.trees])

    def level_histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for t in self.trees:
            for lvl, n in t.level_histogram().items():
                out[lvl] = out.get(lvl, 0) + n
        return out

    def is_complete(self) -> bool:
        return all(t.is_complete() for t in self.trees)

    def leaf_centers(self) -> np.ndarray:
        """(n, 3) physical leaf centers through the tree geometry maps."""
        parts = []
        for tid, t in enumerate(self.trees):
            parts.append(self.conn.tree_map(tid, t.leaves.centers()))
        return np.concatenate(parts, axis=0)

    # -- adaptation -------------------------------------------------------------------

    def refine(self, mask: np.ndarray) -> "Forest":
        """Refine flat-order-marked leaves (mask over all trees)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        offs = self.tree_offsets()
        return Forest(
            self.conn,
            [
                t.refine(mask[offs[i] : offs[i + 1]])
                for i, t in enumerate(self.trees)
            ],
        )

    def coarsen(self, mask: np.ndarray) -> tuple["Forest", int]:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        offs = self.tree_offsets()
        new_trees = []
        nfam = 0
        for i, t in enumerate(self.trees):
            nt, nf = t.coarsen(mask[offs[i] : offs[i + 1]])
            new_trees.append(nt)
            nfam += nf
        return Forest(self.conn, new_trees), nfam

    # -- balance ----------------------------------------------------------------------

    def _cross_tree_marks(self, marks: list[np.ndarray]) -> bool:
        """Propagate balance requirements across tree faces.

        For every leaf, the same-size neighbor sample points that exit the
        tree through exactly one face are transformed into the adjacent
        tree and the containing leaf is marked if it is two or more levels
        coarser.  Returns True if anything was marked.
        """
        changed = False
        for tid, tree in enumerate(self.trees):
            leaves = tree.leaves
            if len(leaves) == 0:
                continue
            h = leaves.lengths()
            levels = tree.levels.astype(np.int64)
            for axis in range(3):
                for side in (0, 1):
                    face = 2 * axis + side
                    fc = self.conn.face_connections[tid][face]
                    if fc is None:
                        continue
                    d = np.zeros(3, dtype=np.int64)
                    d[axis] = 1 if side else -1
                    nx, ny, nz, _ = leaves.neighbor_anchors(d)
                    px = nx + h // 2
                    py = ny + h // 2
                    pz = nz + h // 2
                    # points that exited through exactly this face
                    coords = np.stack([px, py, pz], axis=1)
                    out = (coords[:, axis] >= ROOT_LEN) if side else (coords[:, axis] < 0)
                    inb = np.ones(len(coords), dtype=bool)
                    for a2 in range(3):
                        if a2 != axis:
                            inb &= (coords[:, a2] >= 0) & (coords[:, a2] < ROOT_LEN)
                    sel = out & inb
                    if not sel.any():
                        continue
                    q = fc.transform(coords[sel])
                    if np.any(q < 0) or np.any(q >= ROOT_LEN):
                        raise AssertionError("face transform left the neighbor tree")
                    nb = self.trees[fc.neighbor_tree]
                    idx = nb.find_containing(q[:, 0], q[:, 1], q[:, 2])
                    viol = nb.levels[idx].astype(np.int64) < levels[sel] - 1
                    if viol.any():
                        marks[fc.neighbor_tree][idx[viol]] = True
                        changed = True
        return changed

    def balance(self, connectivity: str = "edge", max_rounds: int = 64) -> tuple["Forest", int]:
        """Ripple-propagation 2:1 balance over the whole forest.

        Returns ``(forest, leaves_added)``.
        """
        dirs = directions_for(connectivity)
        forest = self
        n0 = len(self)
        for _ in range(max_rounds):
            marks = [
                _violating_leaf_marks(t, dirs) for t in forest.trees
            ]
            forest._cross_tree_marks(marks)
            if not any(m.any() for m in marks):
                return forest, len(forest) - n0
            forest = Forest(
                forest.conn,
                [
                    t.refine(m) if m.any() else t
                    for t, m in zip(forest.trees, marks)
                ],
            )
        raise RuntimeError("forest balance did not converge")

    def is_balanced(self, connectivity: str = "edge") -> bool:
        dirs = directions_for(connectivity)
        marks = [_violating_leaf_marks(t, dirs) for t in self.trees]
        if any(m.any() for m in marks):
            return False
        marks = [np.zeros(len(t), dtype=bool) for t in self.trees]
        return not self._cross_tree_marks(marks)

    # -- partitioning -----------------------------------------------------------------

    def partition_assignments(self, p: int, weights: np.ndarray | None = None) -> np.ndarray:
        """Rank of each leaf when the global (tree, Morton) order is cut
        into ``p`` equal segments (by count, or by cumulative weight).

        This is the forest PARTITIONTREE rule; used to visualize and
        account the drastically changing partitions of Figure 12.
        """
        n = len(self)
        if weights is None:
            base, rem = divmod(n, p)
            counts = [base + (1 if r < rem else 0) for r in range(p)]
            return np.repeat(np.arange(p), counts)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights length mismatch")
        cum = np.cumsum(w) - w
        cuts = w.sum() * np.arange(1, p) / p
        return np.searchsorted(cuts, cum, side="right")
