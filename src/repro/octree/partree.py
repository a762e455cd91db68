"""Distributed linear octrees — the parallel ALPS tree functions.

The distributed octree is the one-tree forest: one rank's contiguous
segment of the global Morton-ordered leaf sequence (Figure 3) is a
:class:`~repro.forest.parforest.ParForest` on ``unit_cube()``.  The only
global metadata any rank stores is one key per rank — the *partition
markers* — obtained by an ``allgather``, exactly as described in Section
IV-A ("the only global information that is required to be stored is one
long integer per core").

The paper's functions keep their names here and are the forest's
methods, called on that segment:

- :func:`new_tree` — NEWTREE: every rank takes its equal share of the
  coarse uniform tree (no communication).
- :func:`refine_tree` — completely local.
- :func:`coarsen_tree` — COARSENTREE: local for fully-owned families;
  families that straddle a partition marker are resolved with one
  exchange so the result is identical for every rank count.
- :func:`balance_tree` — BALANCETREE: communication-free local balance,
  then boundary-leaf exchanges (typically two) until a global fixed point
  (:func:`~repro.forest.recursive.balance_forest_recursive`).
- :func:`partition_tree` — PARTITIONTREE: equal-count (or weighted)
  repartition along the space-filling curve via all-to-all; returns the
  routing plan that TRANSFERFIELDS reuses for element data.

What these functions know about the space-filling curve — the marker
back-fill (:func:`curve_markers`), the owner lookup
(:func:`owners_of_keys`), the equal-count slice (:func:`sfc_segment`),
the equal-count / weighted cut (:func:`curve_cut`) and the all-to-all
that applies it (:func:`repartition`) — takes the keys, not the octants:
the forest (:mod:`repro.forest`) calls them with its composite
``(tree, Morton)`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..parallel import SimComm
from .linear import LinearOctree
from .traverse import owners_of_keys

if TYPE_CHECKING:  # the forest imports the curve helpers below
    from ..forest import ParForest

__all__ = [
    "new_tree",
    "refine_tree",
    "coarsen_tree",
    "balance_tree",
    "partition_tree",
    "partition_markers",
    "curve_markers",
    "owners_of_keys",
    "sfc_segment",
    "curve_cut",
    "repartition",
    "gather_tree",
    "TransferPlan",
]


def curve_markers(comm: SimComm, keys: np.ndarray, total) -> np.ndarray:
    """Allgather the partition boundaries of a curve with keys in
    ``[0, total)``, of which this rank holds the sorted ``keys``.

    Returns ``m`` of length ``P + 1`` with ``m[0] = 0`` and
    ``m[P] = total``; rank ``r`` owns exactly the keys in
    ``[m[r], m[r+1])``.  Ranks with no leaves own an empty interval.
    """
    firsts = comm.allgather(int(keys[0]) if len(keys) else -1)
    p = comm.size
    m = np.empty(p + 1, dtype=np.uint64)
    m[p] = total
    for r in range(p - 1, -1, -1):
        m[r] = np.uint64(firsts[r]) if firsts[r] >= 0 else m[r + 1]
    m[0] = np.uint64(0)
    return m


def partition_markers(pt: ParForest) -> np.ndarray:
    """One forest key per rank (:meth:`ParForest.markers`): a Morton key
    ``k`` of the octree is owned by the rank owning ``forest_key(0, k)``."""
    return pt.markers()


def _sfc_starts(total: int, size: int) -> np.ndarray:
    """First curve position of each of ``size`` equal-count segments of
    ``total`` positions, and ``total``: the first ``total % size``
    segments hold one position more."""
    base, rem = divmod(int(total), size)
    r = np.arange(size + 1, dtype=np.int64)
    return r * base + np.minimum(r, rem)


def sfc_segment(total: int, size: int, rank: int) -> tuple[int, int]:
    """``[lo, hi)`` of rank ``rank``'s share when ``total`` curve
    positions are split into ``size`` equal-count contiguous segments —
    the rule of NEWTREE, of the unweighted PARTITIONTREE and of a
    restart onto a new rank count."""
    starts = _sfc_starts(total, size)
    return int(starts[rank]), int(starts[rank + 1])


def curve_cut(p: int, n: int, weights, before, total) -> np.ndarray:
    """Destination rank of each of ``n`` consecutive leaves when the
    whole curve is cut into ``p`` segments of equal leaf count
    (``weights is None``, or all weights zero) or of equal cumulative
    weight.  ``before`` and ``total`` are ``(leaf count, weight)`` ahead
    of these leaves and over the whole curve.  The result is
    nondecreasing, which the callers' ``searchsorted`` slicing relies on:
    ``weights`` (length ``n``) must be finite and non-negative."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights length mismatch")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValueError("weights must be finite and non-negative")
        if total[1] > 0:
            cuts = total[1] * np.arange(1, p, dtype=np.float64) / p
            cum = before[1] + np.cumsum(weights) - weights  # weight ahead of each leaf
            return np.searchsorted(cuts, cum, side="right")
    gidx = int(before[0]) + np.arange(n, dtype=np.int64)
    return np.searchsorted(_sfc_starts(total[0], p)[1:], gidx, side="right")


def new_tree(comm: SimComm, coarse_level: int) -> ParForest:
    """NEWTREE: this rank's equal share of the Morton-ordered uniform tree
    at ``coarse_level`` (no communication)."""
    from ..forest import ParForest, unit_cube

    return ParForest.uniform(comm, unit_cube(), coarse_level)


def refine_tree(pt: ParForest, mask: np.ndarray) -> ParForest:
    """REFINETREE: replace marked local leaves by their children (local)."""
    return pt.refine(mask)


def coarsen_tree(pt: ParForest, mask: np.ndarray) -> tuple[ParForest, int]:
    """COARSENTREE: coarsen complete families of 8 marked sibling leaves
    (:meth:`ParForest.coarsen`: one marker allgather and two all-to-alls,
    none on one rank).  Returns ``(tree, families merged by this rank)``.
    """
    return pt.coarsen(mask)


def balance_tree(
    pt: ParForest,
    connectivity: str = "edge",
    max_rounds: int = 64,
) -> tuple[ParForest, int, int]:
    """BALANCETREE: local 2:1 balance, then boundary-leaf exchanges with
    the insulation-layer neighbors until a convergence allreduce reports
    a global fixed point (Isaac et al., arXiv:1406.0089).  The 2:1
    closure of a complete octree is unique, so the result is the serial
    :func:`~repro.octree.balance.balance` of the gathered tree for every
    rank count.

    Returns ``(tree, leaves_added, exchanges)``: the third value is the
    number of boundary exchanges (the insulation-propagation depth,
    almost always <= 2), which ``max_rounds`` bounds — exceeding it
    raises ``RuntimeError``.
    """
    from ..forest.recursive import balance_forest_recursive

    return balance_forest_recursive(pt, connectivity, max_rounds)


@dataclass
class TransferPlan:
    """Routing produced by PARTITIONTREE, reused by TRANSFERFIELDS.

    ``send_slices[r] = (lo, hi)`` — the local element index range (in the
    pre-partition curve order) shipped to rank ``r``.  Because the global
    curve order is preserved, concatenating received blocks in rank order
    yields data aligned with the post-partition local element order.
    """

    send_slices: list[tuple[int, int]]

    def transfer(self, comm: SimComm, element_data: np.ndarray) -> np.ndarray:
        """TRANSFERFIELDS for per-element data: route rows of
        ``element_data`` (first axis = old local elements) to the new
        owners and return the new local block."""
        parts = [element_data[lo:hi] for lo, hi in self.send_slices]
        recv = comm.alltoall(parts)
        recv = [p for p in recv if len(p)]
        if not recv:
            return element_data[:0]
        return np.concatenate(recv, axis=0)


def repartition(
    comm: SimComm, rows: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, TransferPlan]:
    """Cut the global curve anew (:func:`curve_cut`) and route ``rows`` —
    one per local leaf, in curve order — to their new owners with one
    all-to-all.  Returns this rank's new rows and the routing plan."""
    n = len(rows)
    if weights is None:
        offset, count = comm.global_offsets(n)
        before, total = (offset, 0.0), (count, 0.0)
    else:
        mine = np.array([n, np.sum(weights)], dtype=np.float64)
        before, total = comm.exscan(mine), comm.allreduce(mine)
    dest = curve_cut(comm.size, n, weights, before, total)
    bounds = np.searchsorted(dest, np.arange(comm.size + 1))
    plan = TransferPlan([(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])])
    return plan.transfer(comm, rows), plan


def partition_tree(
    pt: ParForest, weights: np.ndarray | None = None
) -> tuple[ParForest, TransferPlan]:
    """PARTITIONTREE: repartition the space-filling curve for load balance
    (:meth:`ParForest.partition`).

    With ``weights=None`` each rank receives an equal share of the global
    leaf count; otherwise the curve is cut at equal cumulative weight.
    Completely redistributes the tree with one all-to-all (the paper notes
    no explicit penalty is placed on data movement).
    """
    return pt.partition(weights)


def gather_tree(pt: ParForest) -> LinearOctree:
    """Collect the full tree on every rank (verification/testing only)."""
    return LinearOctree(pt.gather().octs, presorted=True)
