"""Low-collective 2:1 balance of the distributed forest.

Ports the p4est algorithm of Isaac, Burstedde, Wilcox & Ghattas
("Recursive Algorithms for Distributed Forests of Octrees",
arXiv:1406.0089) to :class:`~repro.forest.parforest.ParForest`:
:func:`balance_forest_recursive` — the body of :meth:`ParForest.balance`
— balances the local subtree with zero communication, then merges
boundary leaves into the insulation layers of neighboring ranks
(within-tree via dilated boxes, cross-tree via the connectivity's exact
lattice transforms of the one-cell face slabs) and re-balances until a
single convergence allreduce reports a global fixed point — typically
two exchanges.  The 2:1 closure of a complete forest is unique, so the
result is the serial :meth:`Forest.balance` of the gathered forest.
"""

from __future__ import annotations

import numpy as np

from ..octree import OctantArray, ROOT_LEN, morton_encode
from ..octree.traverse import box_owner_pairs, dilated_boxes
from .parforest import ParForest, forest_key, sample_queries

__all__ = ["balance_forest_recursive"]

#: Side length of a forest-reduced cell in finest-cell units: the
#: composite ordering drops the lowest 6 Morton bits (2 per axis), so the
#: finest addressable unit is a level-(MAX_LEVEL - 2) = level-19 cell.
_UNIT = 4

_SHIFT = np.uint64(57)


def _forest_destinations(
    pf: ParForest, markers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(leaf_idx, dest_rank)`` pairs for the forest: remote ranks owning
    any reduced cell adjacent to each local leaf — within its tree via
    the dilated box, across connected tree faces via the transformed
    one-cell face slab.  Cross-tree adjacency through edges/corners is
    (like :func:`~repro.forest.parforest.sample_queries`) not propagated
    directly; it is covered transitively by face balance."""
    tids = pf.tree_ids
    octs = pf.octs
    rank = pf.comm.rank
    if not len(octs):
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    lo, hi = dilated_boxes(octs, unit=_UNIT)
    offs = tids.astype(np.uint64) << _SHIFT
    h = octs.lengths()
    # leaves on a connected tree face need cross-tree destinations even
    # when their (clamped) within-tree box is wholly local
    on_face = np.zeros(len(octs), dtype=bool)
    anchors = (octs.x, octs.y, octs.z)
    for t in np.unique(tids):
        fcs = pf.conn.face_connections[t]
        sel = tids == t
        for axis in range(3):
            if fcs[2 * axis] is not None:
                on_face |= sel & (anchors[axis] == 0)
            if fcs[2 * axis + 1] is not None:
                on_face |= sel & (anchors[axis] + h == ROOT_LEN)
    kmin = forest_key(tids, _encode_full(lo * _UNIT))
    kmax = forest_key(tids, _encode_full(hi * _UNIT))
    kmin_owner = np.searchsorted(markers[1:-1], kmin, side="right")
    kmax_owner = np.searchsorted(markers[1:-1], kmax, side="right")
    boundary = (kmin_owner != rank) | (kmax_owner != rank) | on_face
    cand = np.flatnonzero(boundary)
    pairs_i = []
    pairs_r = []
    it, rk = box_owner_pairs(lo[cand], hi[cand], cand, markers, offs[cand])
    pairs_i.append(it)
    pairs_r.append(rk)
    # cross-tree face slabs: the dilated box's one-cell layer beyond each
    # connected tree face, transformed to the neighbor tree's frame
    cx, cy, cz = octs.x[cand], octs.y[cand], octs.z[cand]
    ch = h[cand]
    ct = tids[cand]
    for t in np.unique(ct):
        fcs = pf.conn.face_connections[t]
        tsel = np.flatnonzero(ct == t)
        for face in range(6):
            fc = fcs[face]
            if fc is None:
                continue
            axis, side = face // 2, face % 2
            coord = (cx, cy, cz)[axis]
            if side:
                on = tsel[coord[tsel] + ch[tsel] == ROOT_LEN]
            else:
                on = tsel[coord[tsel] == 0]
            if not len(on):
                continue
            slo = np.stack([cx[on], cy[on], cz[on]], axis=1) - _UNIT
            shi = slo + np.stack([ch[on]] * 3, axis=1) + 2 * _UNIT - 1
            np.clip(slo, 0, ROOT_LEN - 1, out=slo)
            np.clip(shi, 0, ROOT_LEN - 1, out=shi)
            # normal extent: the one-cell layer beyond the face
            if side:
                slo[:, axis] = ROOT_LEN
                shi[:, axis] = ROOT_LEN + _UNIT - 1
            else:
                slo[:, axis] = -_UNIT
                shi[:, axis] = -1
            q0 = fc.transform(slo)
            q1 = fc.transform(shi)
            qlo = np.minimum(q0, q1) // _UNIT
            qhi = np.maximum(q0, q1) // _UNIT
            offs_nb = np.full(
                len(on), np.uint64(fc.neighbor_tree) << _SHIFT, dtype=np.uint64
            )
            it, rk = box_owner_pairs(qlo, qhi, cand[on], markers, offs_nb)
            pairs_i.append(it)
            pairs_r.append(rk)
    it = np.concatenate(pairs_i)
    rk = np.concatenate(pairs_r)
    remote = rk != rank
    it, rk = it[remote], rk[remote]
    code = it * np.int64(len(markers)) + rk
    _, first = np.unique(code, return_index=True)
    return it[first], rk[first]


def _encode_full(pts: np.ndarray) -> np.ndarray:
    """Morton keys of (n, 3) full-resolution coordinate rows."""
    return morton_encode(pts[:, 0], pts[:, 1], pts[:, 2])


def _forest_ripple(
    pf: ParForest,
    connectivity: str,
    flo: np.uint64,
    fhi: np.uint64,
    extra_t: np.ndarray | None,
    extra_o: OctantArray | None,
) -> tuple[ParForest, bool]:
    """Balance this rank's forest segment against itself plus the static
    received boundary leaves, refining until a local fixed point.  Only
    sample queries landing in this rank's composite-key interval are
    answered."""
    changed = False
    while True:
        if extra_o is None:
            src_t, src_o = pf.tree_ids, pf.octs
        else:
            src_t = np.concatenate([pf.tree_ids, extra_t])
            src_o = OctantArray.concat([pf.octs, extra_o])
        qfk, qlv = sample_queries(src_t, src_o, pf.conn, connectivity)
        keep = (qfk >= flo) & (qfk < fhi)
        if not keep.any():
            return pf, changed
        fkeys = pf.fkeys()
        idx = np.searchsorted(fkeys, qfk[keep], side="right") - 1
        viol = pf.octs.level[idx].astype(np.int64) < qlv[keep] - 1
        mark = np.zeros(len(pf), dtype=bool)
        mark[idx[viol]] = True
        if not mark.any():
            return pf, changed
        pf = pf.refine(mark)
        changed = True


def balance_forest_recursive(
    pf: ParForest, connectivity: str = "edge", max_rounds: int = 64
) -> tuple[ParForest, int, int]:
    """Low-collective forest BALANCE: local recursive balance, then
    boundary insertion/merge rounds with one convergence allreduce each.

    Markers are fixed for the whole call (balancing never changes a
    rank's first composite key): one allgather up front, then per
    exchange one alltoall of boundary leaves plus one allreduce —
    typically two exchanges total.

    Returns ``(forest, leaves_added, exchanges)``; ``max_rounds`` bounds
    the exchanges.
    """
    comm = pf.comm
    n0 = pf.global_count()
    markers = pf.markers()
    flo, fhi = markers[comm.rank], markers[comm.rank + 1]
    pf, _ = _forest_ripple(pf, connectivity, flo, fhi, None, None)
    exchanges = 0
    while exchanges < max_rounds:
        idx, dst = _forest_destinations(pf, markers)
        sendbufs = []
        for r in range(comm.size):  # lint: allow-loop (per-rank, not per-element)
            sel = idx[dst == r]
            buf = np.empty((len(sel), 5), dtype=np.int64)
            buf[:, 0] = pf.tree_ids[sel]
            buf[:, 1] = pf.octs.x[sel]
            buf[:, 2] = pf.octs.y[sel]
            buf[:, 3] = pf.octs.z[sel]
            buf[:, 4] = pf.octs.level[sel]
            sendbufs.append(buf)
        recv = [b for b in comm.alltoall(sendbufs) if len(b)]
        exchanges += 1
        if recv:
            blk = np.concatenate(recv, axis=0)
            extra_t = blk[:, 0].copy()
            extra_o = OctantArray(blk[:, 1], blk[:, 2], blk[:, 3], blk[:, 4])
        else:
            extra_t, extra_o = None, None
        pf, changed = _forest_ripple(pf, connectivity, flo, fhi, extra_t, extra_o)
        if not comm.allreduce(changed, op="lor"):
            break
    else:
        raise RuntimeError("recursive forest balance did not converge")
    added = pf.global_count() - n0
    return pf, added, exchanges
