"""The forest as a Python list of per-tree sorted leaf arrays, and the
full-sweep forest balance.

``TreeListForest`` is what ``repro.forest.Forest`` was before it became
one flat ``(conn, tree_ids, octs)`` segment: refine and coarsen tree by
tree, and a 2:1 balance that sweeps every tree with the octree's
violation marks and then walks every (tree, face) pair to carry the marks
across glued faces.  The flat forest (in-place refine, one vectorised
family merge and ripple over composite keys) must produce the same leaves,
families merged and ``leaves_added``; ``TreeListForest`` shares none of
its kernels, and finds the leaf holding a point with its own binary
search (``find_leaf``).

``coarsen_families`` is the octree's COARSENTREE before it became the
one-tree forest's: every sibling-0 leaf whose eight consecutive leaves
are marked, at one level and under one parent Morton key, heads a family,
and the parents are re-sorted in.

``ripple_forest_full_sweep`` is the flat forest's ripple before it became
frontier-driven: every round samples every leaf of the segment and of the
received boundary leaves in every direction at once, with its own
sampling.  ``balance_forest_full_sweep`` is the distributed loop around a
ripple kernel (this one unless given), reporting the per-call round
counts that ``repro.forest.recursive.balance_forest_recursive`` does not
return; it ships along the library's destination rule, which
``tests/test_forest_recursive.py`` holds to the octree's own.
"""

from __future__ import annotations

import numpy as np

from repro.forest.forest import forest_key
from repro.forest.recursive import exchange_boundary_leaves
from repro.octree import OctantArray, ROOT_LEN, morton_encode
from repro.octree.morton import MAX_LEVEL
from repro.octree.octants import directions_for


def find_leaf(leaves: OctantArray, px, py, pz) -> np.ndarray:
    """Index of the leaf of the sorted, complete tree ``leaves`` that
    holds each integer point: every finest-level Morton key lies in
    exactly one leaf's key interval."""
    return np.searchsorted(leaves.keys(), morton_encode(px, py, pz), side="right") - 1


def leaf_marks(leaves: OctantArray, dirs: np.ndarray) -> np.ndarray:
    """Mark leaves that are >= 2 levels coarser than a neighboring leaf."""
    h = leaves.lengths()
    mark = np.zeros(len(leaves), dtype=bool)
    levels = leaves.level.astype(np.int64)
    for d in dirs:
        nx, ny, nz, ok = leaves.neighbor_anchors(d)
        if not ok.any():
            continue
        px = nx[ok] + h[ok] // 2
        py = ny[ok] + h[ok] // 2
        pz = nz[ok] + h[ok] // 2
        idx = find_leaf(leaves, px, py, pz)
        viol = levels[idx] < levels[ok] - 1
        mark[idx[viol]] = True
    return mark


def coarsen_families(leaves: OctantArray, mask: np.ndarray) -> tuple[OctantArray, int]:
    """Replace complete families of 8 marked sibling leaves of one sorted,
    complete tree by their parent: ``(leaves, families merged)``."""
    n = len(leaves)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError("mask length mismatch")
    coarsenable = mask & (leaves.level > 0)
    if not coarsenable.any():
        return leaves, 0
    keys = leaves.keys()
    levels = leaves.level.astype(np.int64)
    # parent key: clear the low 3 * (MAX_LEVEL - level + 1) bits
    shift = np.uint64(3) * (np.uint64(MAX_LEVEL) - levels.astype(np.uint64) + np.uint64(1))
    parent_key = (keys >> shift) << shift
    starts = np.flatnonzero(
        (leaves.sibling_ids() == 0) & coarsenable & (np.arange(n) + 8 <= n)
    )
    block = starts[:, None] + np.arange(8)[None, :]
    good = np.all(coarsenable[block], axis=1)
    good &= np.all(levels[block] == levels[starts][:, None], axis=1)
    good &= np.all(parent_key[block] == parent_key[starts][:, None], axis=1)
    starts = starts[good]
    if len(starts) == 0:
        return leaves, 0
    keep = np.ones(n, dtype=bool)
    keep[(starts[:, None] + np.arange(8)[None, :]).ravel()] = False
    return OctantArray.concat([leaves[keep], leaves[starts].parents()]).sort(), len(starts)


def full_sweep_samples(tree_ids, octs, conn, dirs):
    """(query_fkeys, query_levels) of every leaf's neighbor samples in
    every direction at once, face exits moved into the neighbor tree."""
    h = octs.lengths()
    centers = np.stack([octs.x, octs.y, octs.z]) + h // 2
    p = centers[:, None, :] + dirs.T[:, :, None] * h  # (3, n_dirs, n)
    ok = ((p >= 0) & (p < ROOT_LEN)).all(axis=0)  # (n_dirs, n)
    tids = np.broadcast_to(tree_ids, ok.shape)
    levels = np.broadcast_to(octs.level.astype(np.int64), ok.shape)
    qf = forest_key(tids[ok], morton_encode(p[0][ok], p[1][ok], p[2][ok]))
    d, e = np.nonzero(~ok & (np.abs(dirs).sum(axis=1) == 1)[:, None])
    axis = np.abs(dirs[d]).argmax(axis=1)
    face = 2 * axis + (dirs[d, axis] > 0)
    nb = conn.face_tree[tree_ids[e], face]
    d, e, face, nb = (a[nb >= 0] for a in (d, e, face, nb))
    R, o = conn.face_R[tree_ids[e], face], conn.face_o[tree_ids[e], face]
    q = np.einsum("mij,mj->mi", R, p[:, d, e].T) + o
    qx = forest_key(nb, morton_encode(q[:, 0], q[:, 1], q[:, 2]))
    return np.concatenate([qf, qx]), np.concatenate([levels[ok], levels[d, e]])


def ripple_forest_full_sweep(forest, dirs, flo, fhi, extra, max_rounds=64):
    """``(forest, rounds)``: split every leaf two or more levels coarser
    than a leaf (of the segment or of ``extra``) whose sample in
    ``[flo, fhi)`` it holds, until a fixed point."""
    for rounds in range(max_rounds):
        tids, octs = forest.tree_ids, forest.octs
        if extra is not None:
            tids = np.concatenate([tids, extra.tree_ids])
            octs = OctantArray.concat([octs, extra.octs])
        qfk, qlv = full_sweep_samples(tids, octs, forest.conn, dirs)
        keep = (qfk >= flo) & (qfk < fhi)
        keys = forest_key(forest.tree_ids, forest.octs.keys())
        idx = np.searchsorted(keys, qfk[keep], side="right") - 1
        mark = np.zeros(len(forest), dtype=bool)
        mark[idx[forest.octs.level[idx] < qlv[keep] - 1]] = True
        if not mark.any():
            return forest, rounds
        forest = forest.refine(mark)
    raise RuntimeError("forest balance did not converge")


def balance_forest_full_sweep(pf, connectivity="edge", kernel=ripple_forest_full_sweep):
    """The distributed forest balance around a local ripple ``kernel``
    (``kernel(pf, dirs, flo, fhi, extra, max_rounds) -> (pf, rounds)``).
    Returns ``(forest, leaves_added, exchanges, rounds_per_kernel_call)``."""
    comm = pf.comm
    dirs = directions_for(connectivity)
    n0 = comm.allreduce(len(pf))
    markers = pf.markers()
    flo, fhi = markers[comm.rank], markers[comm.rank + 1]
    pf, r = kernel(pf, dirs, flo, fhi, None, 64)
    rounds, exchanges = [r], 0
    while True:
        got = exchange_boundary_leaves(pf, markers, pf._rows())
        exchanges += 1
        extra = pf._from_rows(np.concatenate(got))
        pf, r = kernel(pf, dirs, flo, fhi, extra, 64)
        rounds.append(r)
        if not comm.allreduce(r > 0, op="lor"):
            break
    return pf, comm.allreduce(len(pf)) - n0, exchanges, rounds


class TreeListForest:
    """One complete, Morton-sorted leaf array per connectivity tree."""

    def __init__(self, conn, trees: list[OctantArray]):
        if len(trees) != conn.n_trees:
            raise ValueError("one octree per connectivity tree required")
        self.conn = conn
        self.trees = trees

    @classmethod
    def from_flat(cls, forest) -> "TreeListForest":
        """Split a flat ``repro.forest.Forest`` at its tree boundaries."""
        return cls(
            forest.conn,
            [forest.octs[forest.tree_ids == t] for t in range(forest.conn.n_trees)],
        )

    def assert_same_leaves(self, forest) -> None:
        """``forest`` (flat) holds exactly these leaves: tree ids, anchors
        and levels ``array_equal`` in (tree, Morton) order."""
        octs = OctantArray.concat(self.trees)
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
            leaves, nf = coarsen_families(t, mask[offs[i] : offs[i + 1]])
            new_trees.append(leaves)
            nfam += nf
        return TreeListForest(self.conn, new_trees), nfam

    # -- balance ------------------------------------------------------------

    def _cross_tree_marks(self, marks: list[np.ndarray]) -> bool:
        """For every leaf, the same-size neighbor sample points that exit
        the tree through exactly one face are transformed into the
        adjacent tree and the containing leaf is marked if it is two or
        more levels coarser.  Returns True if anything was marked."""
        changed = False
        for tid, leaves in enumerate(self.trees):
            h = leaves.lengths()
            levels = leaves.level.astype(np.int64)
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
                    idx = find_leaf(nb, q[:, 0], q[:, 1], q[:, 2])
                    viol = nb.level[idx].astype(np.int64) < levels[sel] - 1
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
            marks = [leaf_marks(t, dirs) for t in forest.trees]
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
        if any(leaf_marks(t, dirs).any() for t in self.trees):
            return False
        marks = [np.zeros(len(t), dtype=bool) for t in self.trees]
        return not self._cross_tree_marks(marks)
