"""The one distributed 2:1 balance (BALANCETREE) and its destination rule.

The p4est algorithm of Isaac, Burstedde, Wilcox & Ghattas ("Recursive
Algorithms for Distributed Forests of Octrees", arXiv:1406.0089):
:func:`balance_forest_recursive` — the body of :meth:`ParForest.balance`
and, on the one-tree forest, of the octree's
:func:`~repro.octree.partree.balance_tree` — runs the segment's frontier
ripple with no communication, then exchanges boundary leaves with the
insulation-layer ranks and re-balances until one convergence allreduce
reports a global fixed point, typically after two exchanges.  The 2:1
closure of a complete forest is unique, so the result is the serial
:meth:`Forest.balance` of the gathered forest.  The exchange
(:func:`exchange_boundary_leaves`) follows the one destination rule,
:func:`_forest_destinations`; the octree's ghost layer
(:func:`~repro.mesh.parmesh.collect_ghosts`) ships along it too.
"""

from __future__ import annotations

import numpy as np

from ..octree import ROOT_LEN, morton_encode
from ..octree.octants import directions_for
from ..octree.partree import owners_of_keys
from ..octree.traverse import box_owner_pairs, dilated_boxes
from .forest import FOREST_MAX_LEVEL, forest_key
from .parforest import ParForest

__all__ = ["balance_forest_recursive", "exchange_boundary_leaves"]

#: Side length of a forest-reduced cell in finest-cell units: the
#: composite ordering drops the lowest 6 Morton bits (2 per axis), so the
#: finest addressable unit is a level-(MAX_LEVEL - 2) = level-19 cell.
_UNIT = 4


def _forest_destinations(
    pf: ParForest, markers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(leaf_idx, dest_rank)`` pairs, sorted and unique: the remote
    ranks owning any reduced cell adjacent to each local leaf — within its
    tree via the dilated box (exact 26-adjacency, since leaves never
    straddle markers), across connected tree faces via the transformed
    one-cell face slab.  Cross-tree adjacency through edges/corners is
    (like :func:`~repro.forest.forest.sample_queries`) not propagated
    directly; it is covered transitively by face balance."""
    tids = pf.tree_ids
    octs = pf.octs
    rank = pf.comm.rank
    if not len(octs):
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    lo, hi = dilated_boxes(octs, unit=_UNIT)
    offs = forest_key(tids, 0)
    kmin = offs | morton_encode(lo[:, 0], lo[:, 1], lo[:, 2])
    kmax = offs | morton_encode(hi[:, 0], hi[:, 1], hi[:, 2])
    # both Morton-extreme corners local means every box key is local
    boundary = (owners_of_keys(markers, np.stack([kmin, kmax])) != rank).any(axis=0)
    glued_faces = (pf.conn.face_tree >= 0).any()
    if glued_faces:
        h = octs.lengths()
        anchors = np.stack([octs.x, octs.y, octs.z], axis=1)
        # (n, 6): the leaf lies on face f of its tree and that face is
        # glued; such leaves need cross-tree destinations even when their
        # (clamped) within-tree box is wholly local
        glued = np.empty((len(octs), 6), dtype=bool)
        glued[:, 0::2] = anchors == 0
        glued[:, 1::2] = anchors + h[:, None] == ROOT_LEN
        glued &= pf.conn.face_tree[tids] >= 0
        boundary |= glued.any(axis=1)
    cand = np.flatnonzero(boundary)
    it, rk = box_owner_pairs(lo[cand], hi[cand], cand, markers, offs[cand])
    if glued_faces:
        # cross-tree face slabs: the dilated box's one-cell layer beyond
        # each connected tree face, transformed to the neighbor tree's frame
        e, f = np.nonzero(glued)
        axis, side, rows = f // 2, f % 2, np.arange(len(e))
        slo = anchors[e] - _UNIT
        shi = slo + h[e, None] + 2 * _UNIT - 1
        np.clip(slo, 0, ROOT_LEN - 1, out=slo)
        np.clip(shi, 0, ROOT_LEN - 1, out=shi)
        # normal extent: the one-cell layer beyond the face
        slo[rows, axis] = np.where(side, ROOT_LEN, -_UNIT)
        shi[rows, axis] = np.where(side, ROOT_LEN + _UNIT - 1, -1)
        R, o = pf.conn.face_R[tids[e], f], pf.conn.face_o[tids[e], f]
        q0 = np.einsum("mij,mj->mi", R, slo) + o
        q1 = np.einsum("mij,mj->mi", R, shi) + o
        offs_nb = forest_key(pf.conn.face_tree[tids[e], f], 0)
        it_x, rk_x = box_owner_pairs(
            np.minimum(q0, q1) // _UNIT, np.maximum(q0, q1) // _UNIT, e, markers, offs_nb
        )
        it, rk = np.concatenate([it, it_x]), np.concatenate([rk, rk_x])
        _, first = np.unique(it * np.int64(len(markers)) + rk, return_index=True)
        it, rk = it[first], rk[first]
    remote = rk != rank
    return it[remote], rk[remote]


def exchange_boundary_leaves(
    pf: ParForest, markers: np.ndarray, rows: np.ndarray
) -> list[np.ndarray]:
    """Send ``rows[i]`` (one row per local leaf) to exactly the remote
    ranks of :func:`_forest_destinations` of leaf ``i``, in one alltoall.
    Returns the received blocks, one per source rank."""
    idx, dst = _forest_destinations(pf, markers)
    return pf.comm.alltoall([rows[idx[dst == r]] for r in range(pf.comm.size)])


def balance_forest_recursive(
    pf: ParForest, connectivity: str = "edge", max_rounds: int = 64
) -> tuple[ParForest, int, int]:
    """Low-collective forest BALANCE.  Markers are fixed for the whole
    call (balancing never changes a rank's first composite key): one
    allgather up front, then per exchange one alltoall of boundary leaves
    plus one convergence allreduce.

    Returns ``(forest, leaves_added, exchanges)``; ``max_rounds`` bounds
    the exchanges, and exceeding it raises ``RuntimeError``.
    """
    comm = pf.comm
    dirs = directions_for(connectivity)
    n0 = comm.allreduce(len(pf))
    markers = pf.markers()
    flo, fhi = markers[comm.rank], markers[comm.rank + 1]
    pf, _ = pf._ripple(dirs, flo, fhi, None, FOREST_MAX_LEVEL)
    exchanges = 0
    while exchanges < max_rounds:
        got = exchange_boundary_leaves(pf, markers, pf._rows())
        exchanges += 1
        extra = pf._from_rows(np.concatenate(got))
        pf, rounds = pf._ripple(dirs, flo, fhi, extra, FOREST_MAX_LEVEL)
        if not comm.allreduce(rounds > 0, op="lor"):
            break
    else:
        raise RuntimeError("parallel balance did not converge")
    return pf, comm.allreduce(len(pf)) - n0, exchanges
