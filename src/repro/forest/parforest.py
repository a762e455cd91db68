"""Distributed forest of octrees — the parallel P4EST core (Section VII).

The global leaf order is (tree id, Morton key), threaded tree by tree;
each rank owns a contiguous segment of it.  As in the single-octree case
(:mod:`repro.octree.partree`), the only global metadata is one composite
key per rank, and all operations are bulk-synchronous:

- :meth:`ParForest.balance` — 2:1 balance by local refinement plus
  boundary-leaf exchanges; neighbor samples that leave a tree through a
  face are transformed into the adjacent tree's coordinates by the
  connectivity's exact lattice transforms;
- :meth:`ParForest.partition` — equal-count repartition of the global
  (tree, Morton) curve with one all-to-all.

Composite key encoding: parallel forests restrict leaves to level <= 19
so every anchor key is a multiple of 64; ``fkey = (tree << 57) | (key >>
6)`` is then an exact, order-preserving uint64 encoding for up to 128
trees — the cubed sphere's 24 fit comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..octree import OctantArray, ROOT_LEN, morton_encode
from ..octree.linear import LinearOctree
from ..octree.morton import key_range_size
from ..octree.octants import directions_for
from ..octree.partree import ParTree, coarsen_tree
from ..parallel import SimComm
from .connectivity import Connectivity
from .forest import Forest

__all__ = ["ParForest", "FOREST_MAX_LEVEL", "forest_key", "sample_queries"]

#: Deepest level supported by the distributed forest encoding.
FOREST_MAX_LEVEL = 19

_SHIFT = np.uint64(57)
_KSHIFT = np.uint64(6)
_TOTAL_PER_TREE = np.uint64(1) << np.uint64(57)  # reduced keys per tree


def forest_key(tree_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Composite (tree, Morton) ordering key (exact for level <= 19)."""
    t = np.asarray(tree_ids).astype(np.uint64)
    k = np.asarray(keys).astype(np.uint64)
    return (t << _SHIFT) | (k >> _KSHIFT)


def _frange(levels) -> np.ndarray:
    """Reduced-key interval length of octants at the given levels."""
    return key_range_size(levels) >> _KSHIFT


@dataclass
class ParForest:
    """One rank's contiguous segment of the global forest leaf sequence."""

    comm: SimComm
    conn: Connectivity
    tree_ids: np.ndarray  # (n,) int64, nondecreasing
    octs: OctantArray     # sorted by (tree, key)

    def __len__(self) -> int:
        return len(self.octs)

    def __post_init__(self):
        if len(self.octs) and self.octs.level.max() > FOREST_MAX_LEVEL:
            raise ValueError(f"ParForest supports levels <= {FOREST_MAX_LEVEL}")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def uniform(cls, comm: SimComm, conn: Connectivity, level: int) -> "ParForest":
        """Every rank gets an equal slice of the (tree, Morton)-ordered
        uniform forest (the forest NEWTREE)."""
        per_tree = OctantArray.uniform(level)
        n_total = conn.n_trees * len(per_tree)
        base, rem = divmod(n_total, comm.size)
        lo = comm.rank * base + min(comm.rank, rem)
        hi = lo + base + (1 if comm.rank < rem else 0)
        idx = np.arange(lo, hi)
        tid = idx // len(per_tree)
        within = idx % len(per_tree)
        sub = per_tree[within]
        return cls(comm, conn, tid.astype(np.int64), sub)

    # -- global metadata ------------------------------------------------------------

    def fkeys(self) -> np.ndarray:
        return forest_key(self.tree_ids, self.octs.keys())

    def markers(self) -> np.ndarray:
        """Per-rank first composite keys; rank r owns [m[r], m[r+1])."""
        first = int(self.fkeys()[0]) if len(self) else -1
        firsts = self.comm.allgather(first)
        p = self.comm.size
        m = np.empty(p + 1, dtype=np.uint64)
        m[p] = np.uint64(self.conn.n_trees) << _SHIFT
        for r in range(p - 1, -1, -1):
            m[r] = np.uint64(firsts[r]) if firsts[r] >= 0 else m[r + 1]
        m[0] = np.uint64(0)
        return m

    def owners(self, markers: np.ndarray, qfkeys: np.ndarray) -> np.ndarray:
        return np.searchsorted(markers[1:-1], qfkeys, side="right").astype(np.int64)

    def global_count(self) -> int:
        return self.comm.allreduce(len(self))

    def level_histogram(self) -> dict[int, int]:
        counts = np.zeros(FOREST_MAX_LEVEL + 1, dtype=np.int64)
        lv, c = np.unique(self.octs.level, return_counts=True)
        counts[lv.astype(np.int64)] = c
        total = self.comm.allreduce(counts)
        return {int(i): int(n) for i, n in enumerate(total) if n > 0}

    # -- local adaptation --------------------------------------------------------------

    def refine(self, mask: np.ndarray) -> "ParForest":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        if not mask.any():
            return self
        kept_t = self.tree_ids[~mask]
        kept = self.octs[~mask]
        ref_t = np.repeat(self.tree_ids[mask], 8)
        refined = self.octs[mask].children()
        tid = np.concatenate([kept_t, ref_t])
        octs = OctantArray.concat([kept, refined])
        order = np.lexsort((octs.level, octs.keys(), tid))
        return ParForest(self.comm, self.conn, tid[order], octs[order])

    def coarsen(self, mask: np.ndarray) -> tuple["ParForest", int]:
        """Coarsen complete families of marked siblings (collective).

        Every rank walks every tree with the octree's own COARSENTREE
        (:func:`repro.octree.partree.coarsen_tree`), which also merges a
        family whose eight siblings straddle a partition marker, so the
        coarsened forest does not depend on the rank count.  Returns
        ``(forest, families merged by this rank)``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        parts_t, parts_o, nfam = [], [], 0
        for t in range(self.conn.n_trees):
            sel = self.tree_ids == t
            pt, nf = coarsen_tree(ParTree(self.comm, self.octs[sel]), mask[sel])
            nfam += nf
            parts_t.append(np.full(len(pt), t, dtype=np.int64))
            parts_o.append(pt.local)
        tid = np.concatenate(parts_t)
        return ParForest(self.comm, self.conn, tid, OctantArray.concat(parts_o)), nfam

    # -- balance -----------------------------------------------------------------------

    def balance(
        self, connectivity: str = "edge", max_rounds: int = 64
    ) -> tuple["ParForest", int]:
        """Distributed 2:1 balance across and within trees: local balance,
        then boundary-leaf exchanges until a global fixed point
        (:func:`repro.forest.recursive.balance_forest_recursive`, at most
        ``max_rounds`` exchanges).  Recorded under the ``amr/balance``
        phase when an obs timer is bound.  Returns
        ``(forest, leaves_added)``."""
        from .recursive import balance_forest_recursive

        with obs.phase("amr/balance"):
            pf, added, _ = balance_forest_recursive(self, connectivity, max_rounds)
            return pf, added

    # -- partition ---------------------------------------------------------------------

    def partition(self, weights: np.ndarray | None = None) -> "ParForest":
        """Equal-count (or weighted) repartition of the global curve
        (recorded under the ``amr/partition`` phase when an obs timer is
        bound)."""
        with obs.phase("amr/partition"):
            return self._partition_impl(weights)

    def _partition_impl(self, weights: np.ndarray | None) -> "ParForest":
        comm = self.comm
        n_local = len(self)
        if weights is None:
            offset, total = comm.global_offsets(n_local)
            base, rem = divmod(total, comm.size)
            tgt = np.array(
                [r * base + min(r, rem) for r in range(comm.size + 1)], dtype=np.int64
            )
            gidx = offset + np.arange(n_local)
            dest = np.searchsorted(tgt[1:], gidx, side="right")
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n_local,):
                raise ValueError("weights length mismatch")
            prev = comm.exscan(w.sum())
            total_w = comm.allreduce(w.sum())
            cum = prev + np.cumsum(w) - w
            cuts = total_w * np.arange(1, comm.size) / comm.size
            dest = np.searchsorted(cuts, cum, side="right")
        packed = np.empty((n_local, 5), dtype=np.int64)
        packed[:, 0] = self.tree_ids
        packed[:, 1] = self.octs.x
        packed[:, 2] = self.octs.y
        packed[:, 3] = self.octs.z
        packed[:, 4] = self.octs.level
        send = []
        for r in range(comm.size):
            lo = int(np.searchsorted(dest, r, side="left"))
            hi = int(np.searchsorted(dest, r, side="right"))
            send.append(packed[lo:hi])
        recv = [b for b in comm.alltoall(send) if len(b)]
        blk = np.concatenate(recv, axis=0) if recv else packed[:0]
        return ParForest(
            self.comm,
            self.conn,
            blk[:, 0].copy(),
            OctantArray(blk[:, 1], blk[:, 2], blk[:, 3], blk[:, 4]),
        )

    # -- gather (testing) -------------------------------------------------------------

    def gather(self) -> Forest:
        """Collect the full forest on every rank (verification only)."""
        packed = np.empty((len(self), 5), dtype=np.int64)
        packed[:, 0] = self.tree_ids
        packed[:, 1] = self.octs.x
        packed[:, 2] = self.octs.y
        packed[:, 3] = self.octs.z
        packed[:, 4] = self.octs.level
        parts = [p for p in self.comm.allgather(packed) if len(p)]
        blk = np.concatenate(parts, axis=0)
        trees = []
        for t in range(self.conn.n_trees):
            sel = blk[:, 0] == t
            trees.append(
                LinearOctree(
                    OctantArray(blk[sel, 1], blk[sel, 2], blk[sel, 3], blk[sel, 4])
                )
            )
        return Forest(self.conn, trees)


def sample_queries(
    tree_ids: np.ndarray,
    octs: OctantArray,
    conn: Connectivity,
    connectivity: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(query_fkeys, query_levels) of all neighbor sample points of the
    given leaves: within-tree for all directions of ``connectivity``,
    cross-tree through faces (exact lattice transforms).

    :func:`repro.forest.recursive.balance_forest_recursive` samples the
    local leaves and the received remote boundary leaves with it."""
    dirs = directions_for(connectivity)
    face_dirs = directions_for("face")
    qf, ql = [], []
    for t in np.unique(tree_ids):
        sel = tree_ids == t
        leaves = octs[sel]
        h = leaves.lengths()
        levels = leaves.level.astype(np.int64)
        for d in dirs:
            nx, ny, nz, ok = leaves.neighbor_anchors(d)
            if ok.any():
                keys = morton_encode(
                    nx[ok] + h[ok] // 2, ny[ok] + h[ok] // 2, nz[ok] + h[ok] // 2
                )
                qf.append(forest_key(np.full(int(ok.sum()), t), keys))
                ql.append(levels[ok])
        # cross-tree: points beyond exactly one face
        for d in face_dirs:
            axis = int(np.flatnonzero(d)[0])
            side = 1 if d[axis] > 0 else 0
            fc = conn.face_connections[t][2 * axis + side]
            if fc is None:
                continue
            nx, ny, nz, ok = leaves.neighbor_anchors(d)
            out = ~ok
            if not out.any():
                continue
            pts = np.stack(
                [nx[out] + h[out] // 2, ny[out] + h[out] // 2, nz[out] + h[out] // 2],
                axis=1,
            )
            # keep only single-face exits (edge/corner exits of the
            # forest are face-balanced transitively)
            bad = ((pts < 0) | (pts >= ROOT_LEN)).sum(axis=1)
            sel1 = bad == 1
            if not sel1.any():
                continue
            q = fc.transform(pts[sel1])
            keys = morton_encode(q[:, 0], q[:, 1], q[:, 2])
            qf.append(forest_key(np.full(int(sel1.sum()), fc.neighbor_tree), keys))
            ql.append(levels[out][sel1])
    if qf:
        return np.concatenate(qf), np.concatenate(ql)
    return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
