"""Distributed forest of octrees — the parallel P4EST core (Section VII).

Each rank owns a contiguous segment of the global (tree id, Morton key)
leaf order: :class:`ParForest` is a :class:`~repro.forest.forest.Forest`
segment plus a communicator, and adds only what communicates.  It is
the one distributed tree type: the distributed octree
(:mod:`repro.octree.partree`, whose curve helpers this module calls with
composite keys) is the ``ParForest`` on ``unit_cube()``.  The only
global metadata is one key per rank, and all operations are
bulk-synchronous:

- :meth:`ParForest.coarsen` — the segment's own families, plus the
  families split by a partition marker, in one marker allgather and two
  all-to-alls whatever the tree count;
- :meth:`ParForest.balance` — 2:1 balance by the segment's local ripple
  plus boundary-leaf exchanges
  (:func:`repro.forest.recursive.balance_forest_recursive`, which is
  also the octree's BALANCETREE);
- :meth:`ParForest.partition` — PARTITIONTREE: equal-count or weighted
  repartition of the global curve with one all-to-all, returning the
  routing plan TRANSFERFIELDS reuses.

Phases are the caller's: the pipeline times each of these under its own
``obs`` phase.
"""

from __future__ import annotations

import numpy as np

from ..octree import OctantArray
from ..octree.morton import key_range_size
from ..octree.partree import (
    TransferPlan,
    curve_markers,
    owners_of_keys,
    repartition,
    sfc_segment,
)
from ..parallel import SimComm
from .connectivity import Connectivity
from .forest import _KSHIFT, Forest

__all__ = ["ParForest"]


class ParForest(Forest):
    """One rank's contiguous segment of the global forest leaf sequence."""

    def __init__(
        self, comm: SimComm, conn: Connectivity, tree_ids: np.ndarray, octs: OctantArray
    ):
        super().__init__(conn, tree_ids, octs)
        self.comm = comm

    @classmethod
    def uniform(cls, comm: SimComm, conn: Connectivity, level: int) -> "ParForest":
        """Every rank gets an equal slice of the (tree, Morton)-ordered
        uniform forest (the forest NEWTREE)."""
        lo, hi = sfc_segment(conn.n_trees * 8**level, comm.size, comm.rank)
        return cls(comm, conn, *cls._uniform_segment(level, lo, hi))

    # -- global metadata ------------------------------------------------------------

    def markers(self) -> np.ndarray:
        """Per-rank first composite keys; rank r owns [m[r], m[r+1])."""
        return curve_markers(self.comm, self.fkeys(), self.fkey_end())

    def global_count(self) -> int:
        """Leaves on all ranks (collective)."""
        return self.comm.allreduce(len(self))

    def level_histogram(self) -> dict[int, int]:
        """Global leaves per level (collective)."""
        counts = self.comm.allreduce(self._level_counts())
        return {lvl: int(n) for lvl, n in enumerate(counts) if n}

    def _rows(self) -> np.ndarray:
        """``(n, 5)`` int64 rows ``tree, x, y, z, level`` for the wire."""
        return np.column_stack([self.tree_ids, self.octs.pack()])

    def _from_rows(self, rows: np.ndarray) -> "ParForest":
        return self._with(rows[:, 0], OctantArray.unpack(rows[:, 1:]))

    # -- collective adaptation ---------------------------------------------------------

    def coarsen(self, mask: np.ndarray) -> tuple["ParForest", int]:
        """Coarsen complete families of marked siblings (collective).

        The segment's own families merge as in :meth:`Forest.coarsen`;
        a family whose eight siblings straddle a partition marker merges
        too (:meth:`_straddling_families`), so the coarsened forest does
        not depend on the rank count.  Returns
        ``(forest, families merged by this rank)``."""
        mask = self._checked_mask(mask)
        heads = self._marked_families(mask)
        lo, hi = heads, heads + 8
        if self.comm.size > 1:
            h, a, b = self._straddling_families(mask)
            heads, lo, hi = np.r_[heads, h], np.r_[lo, a], np.r_[hi, b]
        return self._merge(heads, lo, hi), len(heads)

    def _straddling_families(self, mask: np.ndarray):
        """``(heads, lo, hi)`` as :meth:`Forest._merge` takes them for the
        complete marked families split by a partition marker: one
        ``markers()`` allgather and two all-to-alls, whatever the tree
        count.

        Each rank reports its share of every marker-crossing candidate
        parent (parent fkey, level, leaves inside, marked leaves one
        level below) to the parent's owner; the owner accepts the family
        iff exactly eight marked leaves of that level tile the parent over
        all contributions; contributors then drop their siblings and the
        owner's first child becomes the parent.  (The paper skips split
        families as "a minor restriction", but that makes the coarsened
        forest depend on where the markers fall — rank-count invariance
        and restart determinism require resolving them; see DESIGN.md
        section 4e.)  Ranks holding only unmarked or deeper leaves inside
        a parent do not report, but that only loses counts: an accepted
        family's eight reported leaves already tile the parent."""
        comm = self.comm
        markers = self.markers()
        flo, fhi = markers[comm.rank], markers[comm.rank + 1]
        fk, lv = self.fkeys(), self.octs.level.astype(np.int64)
        cand = mask & (lv > 0)
        prange = key_range_size(np.maximum(lv - 1, 0)) >> _KSHIFT
        pfk = fk & ~(prange - np.uint64(1))
        span = cand & ((pfk < flo) | (pfk + prange > fhi))
        # a marker is crossed by at most one parent per level, so there
        # are a few dozen candidates per rank, whatever the tree count
        pk, pl = np.unique(np.stack([pfk[span], lv[span].astype(np.uint64)]), axis=1)
        i0, i1 = self._key_span(pk, pl)
        nm = [np.count_nonzero(cand[a:b] & (lv[a:b] == l)) for a, b, l in zip(i0, i1, pl)]
        rows = np.stack([pk, pl, (i1 - i0).astype(np.uint64), np.uint64(nm)], axis=1)
        dest = owners_of_keys(markers, pk)
        parts = np.split(rows, np.searchsorted(dest, np.arange(1, comm.size)))
        recv = comm.alltoallv_arrays(parts)

        # the owner decides: 8 marked leaves of the level tile the parent
        got = np.concatenate(recv)
        src = np.repeat(np.arange(comm.size), [len(r) for r in recv])
        _, gid = np.unique(got[:, :2], axis=0, return_inverse=True)
        ok = (np.bincount(gid, got[:, 2]) == 8) & (np.bincount(gid, got[:, 3]) == 8)
        hit = ok[gid]
        acc = np.concatenate(
            comm.alltoallv_arrays([got[hit & (src == j), :2] for j in range(comm.size)])
        )

        # every contributor drops its siblings; the owner keeps its first child
        a0, a1 = self._key_span(acc[:, 0], acc[:, 1])
        heads = a0[fk[a0] == acc[:, 0]]
        return heads, a0, a1

    def _key_span(self, pfk: np.ndarray, plevel: np.ndarray):
        """Leaf index range ``[i0, i1)`` of the segment inside each parent
        at fkey ``pfk`` whose children are at level ``plevel``."""
        fk = self.fkeys()
        end = pfk + (key_range_size(plevel - np.uint64(1)) >> _KSHIFT)
        return np.searchsorted(fk, pfk), np.searchsorted(fk, end)

    def balance(
        self, connectivity: str = "edge", max_rounds: int = 64
    ) -> tuple["ParForest", int]:
        """Distributed 2:1 balance across and within trees: local balance,
        then boundary-leaf exchanges until a global fixed point
        (:func:`repro.forest.recursive.balance_forest_recursive`, at most
        ``max_rounds`` exchanges).  Returns ``(forest, leaves_added)``."""
        from .recursive import balance_forest_recursive

        pf, added, _ = balance_forest_recursive(self, connectivity, max_rounds)
        return pf, added

    def partition(
        self, weights: np.ndarray | None = None
    ) -> tuple["ParForest", TransferPlan]:
        """PARTITIONTREE: equal-count (or weighted) repartition of the
        global curve.  Returns the forest and the routing plan."""
        rows, plan = repartition(self.comm, self._rows(), weights)
        return self._from_rows(rows), plan

    def gather(self) -> Forest:
        """Collect the full forest on every rank (verification only)."""
        rows = np.concatenate(self.comm.allgather(self._rows()), axis=0)
        return Forest(self.conn, rows[:, 0], OctantArray.unpack(rows[:, 1:]))
