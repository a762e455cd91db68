"""Distributed forest of octrees — the parallel P4EST core (Section VII).

Each rank owns a contiguous segment of the global (tree id, Morton key)
leaf order: :class:`ParForest` is a :class:`~repro.forest.forest.Forest`
segment plus a communicator, and adds only what communicates.  As in the
single-octree case (:mod:`repro.octree.partree`, whose curve helpers it
calls with composite keys), the only global metadata is one key per
rank, and all operations are bulk-synchronous:

- :meth:`ParForest.coarsen` — also merges families split by a partition
  marker;
- :meth:`ParForest.balance` — 2:1 balance by the segment's local ripple
  plus boundary-leaf exchanges
  (:func:`repro.forest.recursive.balance_forest_recursive`, which is
  also the octree's BALANCETREE);
- :meth:`ParForest.partition` — equal-count or weighted repartition of
  the global curve with one all-to-all.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..octree import OctantArray
from ..octree.partree import (
    ParTree,
    coarsen_tree,
    curve_markers,
    owners_of_keys,
    repartition,
    sfc_segment,
)
from ..parallel import SimComm
from .connectivity import Connectivity
from .forest import Forest

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

    def owners(self, markers: np.ndarray, qfkeys: np.ndarray) -> np.ndarray:
        return owners_of_keys(markers, qfkeys)

    def _level_counts(self) -> np.ndarray:
        return self.comm.allreduce(super()._level_counts())

    def _rows(self) -> np.ndarray:
        """``(n, 5)`` int64 rows ``tree, x, y, z, level`` for the wire."""
        return np.column_stack([self.tree_ids, self.octs.pack()])

    def _from_rows(self, rows: np.ndarray) -> "ParForest":
        return self._with(rows[:, 0], OctantArray.unpack(rows[:, 1:]))

    # -- collective adaptation ---------------------------------------------------------

    def coarsen(self, mask: np.ndarray) -> tuple["ParForest", int]:
        """Coarsen complete families of marked siblings (collective).

        Every rank walks every tree with the octree's own COARSENTREE
        (:func:`repro.octree.partree.coarsen_tree`), which also merges a
        family whose eight siblings straddle a partition marker, so the
        coarsened forest does not depend on the rank count.  Returns
        ``(forest, families merged by this rank)``."""

        def coarsen_one(octs, mask):
            pt, nfam = coarsen_tree(ParTree(self.comm, octs), mask)
            return pt.local, nfam

        return self._coarsen_by_tree(mask, coarsen_one)

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

    def partition(self, weights: np.ndarray | None = None) -> "ParForest":
        """Equal-count (or weighted) repartition of the global curve
        (recorded under the ``amr/partition`` phase when an obs timer is
        bound)."""
        with obs.phase("amr/partition"):
            return self._from_rows(repartition(self.comm, self._rows(), weights)[0])

    def gather(self) -> Forest:
        """Collect the full forest on every rank (verification only)."""
        rows = np.concatenate(self.comm.allgather(self._rows()), axis=0)
        return Forest(self.conn, rows[:, 0], OctantArray.unpack(rows[:, 1:]))
