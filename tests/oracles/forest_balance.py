"""The forest as a Python list of per-tree ``LinearOctree``s.

This is what ``repro.forest.Forest`` was before it became one flat
``(conn, tree_ids, octs)`` segment: refine and coarsen tree by tree, and
a 2:1 balance that sweeps every tree with the octree's violation marks
and then walks every (tree, face) pair to carry the marks across glued
faces.  The flat forest (in-place refine, one vectorised ripple over
composite keys) must produce the same leaves and the same
``leaves_added``; nothing here shares its kernels.
"""

from __future__ import annotations

import numpy as np

from repro.octree import LinearOctree, OctantArray, ROOT_LEN
from repro.octree.balance import _violating_leaf_marks
from repro.octree.octants import directions_for


class TreeListForest:
    """One complete :class:`LinearOctree` per connectivity tree."""

    def __init__(self, conn, trees: list[LinearOctree]):
        if len(trees) != conn.n_trees:
            raise ValueError("one octree per connectivity tree required")
        self.conn = conn
        self.trees = trees

    @classmethod
    def from_flat(cls, forest) -> "TreeListForest":
        """Split a flat ``repro.forest.Forest`` at its tree boundaries."""
        return cls(
            forest.conn,
            [
                LinearOctree(forest.octs[forest.tree_ids == t], presorted=True)
                for t in range(forest.conn.n_trees)
            ],
        )

    def assert_same_leaves(self, forest) -> None:
        """``forest`` (flat) holds exactly these leaves: tree ids, anchors
        and levels ``array_equal`` in (tree, Morton) order."""
        octs = OctantArray.concat([t.leaves for t in self.trees])
        tids = np.repeat(np.arange(len(self.trees)), [len(t) for t in self.trees])
        np.testing.assert_array_equal(forest.tree_ids, tids)
        for a in ("x", "y", "z", "level"):
            np.testing.assert_array_equal(getattr(forest.octs, a), getattr(octs, a))

    def __len__(self) -> int:
        return sum(len(t) for t in self.trees)

    def tree_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum([len(t) for t in self.trees])])

    # -- adaptation ---------------------------------------------------------

    def refine(self, mask: np.ndarray) -> "TreeListForest":
        offs = self.tree_offsets()
        return TreeListForest(
            self.conn,
            [t.refine(mask[offs[i] : offs[i + 1]]) for i, t in enumerate(self.trees)],
        )

    def coarsen(self, mask: np.ndarray) -> tuple["TreeListForest", int]:
        offs = self.tree_offsets()
        new_trees, nfam = [], 0
        for i, t in enumerate(self.trees):
            nt, nf = t.coarsen(mask[offs[i] : offs[i + 1]])
            new_trees.append(nt)
            nfam += nf
        return TreeListForest(self.conn, new_trees), nfam

    # -- balance ------------------------------------------------------------

    def _cross_tree_marks(self, marks: list[np.ndarray]) -> bool:
        """For every leaf, the same-size neighbor sample points that exit
        the tree through exactly one face are transformed into the
        adjacent tree and the containing leaf is marked if it is two or
        more levels coarser.  Returns True if anything was marked."""
        changed = False
        for tid, tree in enumerate(self.trees):
            leaves = tree.leaves
            h = leaves.lengths()
            levels = tree.levels.astype(np.int64)
            for axis in range(3):
                for side in (0, 1):
                    fc = self.conn.face_connections[tid][2 * axis + side]
                    if fc is None:
                        continue
                    d = np.zeros(3, dtype=np.int64)
                    d[axis] = 1 if side else -1
                    nx, ny, nz, _ = leaves.neighbor_anchors(d)
                    coords = np.stack([nx + h // 2, ny + h // 2, nz + h // 2], axis=1)
                    along = coords[:, axis]
                    sel = (along >= ROOT_LEN) if side else (along < 0)
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

    def balance(
        self, connectivity: str = "edge", max_rounds: int = 64
    ) -> tuple["TreeListForest", int]:
        """Full-sweep ripple over the list; ``(forest, leaves_added)``."""
        dirs = directions_for(connectivity)
        forest = self
        for _ in range(max_rounds):
            marks = [_violating_leaf_marks(t, dirs) for t in forest.trees]
            forest._cross_tree_marks(marks)
            if not any(m.any() for m in marks):
                return forest, len(forest) - len(self)
            forest = TreeListForest(
                forest.conn,
                [t.refine(m) if m.any() else t for t, m in zip(forest.trees, marks)],
            )
        raise RuntimeError("forest balance did not converge")

    def is_balanced(self, connectivity: str = "edge") -> bool:
        dirs = directions_for(connectivity)
        if any(_violating_leaf_marks(t, dirs).any() for t in self.trees):
            return False
        marks = [np.zeros(len(t), dtype=bool) for t in self.trees]
        return not self._cross_tree_marks(marks)
