"""Full-sweep local ripple, the octree's own destination rule, and the
balance drivers built on them.

``ripple_full_sweep`` is the kernel the frontier ripple
(``repro.forest.Forest._ripple``) replaced: every round samples *all*
leaves (plus the received remote boundary leaves) in every direction, in
Morton keys of the single octree.  The frontier kernel must mark the same
set each round, so trees, round counts, exchange counts and collectives
are identical.  ``ghost_destinations`` is the octree's destination rule
the forest's ``_forest_destinations`` replaced: dilated boxes in finest
cells and Morton-key markers, with no tree ids.
"""

from __future__ import annotations

import numpy as np

from repro.octree import LinearOctree, OctantArray, directions_for, morton_encode
from repro.octree.balance import BalanceResult
from repro.octree.morton import key_range_size
from repro.octree.partree import curve_markers, owners_of_keys
from repro.octree.traverse import box_owner_pairs, dilated_boxes


def ghost_destinations(
    local: OctantArray, markers: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(leaf_idx, dest_rank)`` pairs: for each local leaf, every remote
    rank owning a leaf 26-adjacent to it (deduplicated, ``dest != rank``).

    A remote leaf M touches local leaf L iff M's owner owns one of the
    shell cells of L's one-cell-dilated box (leaves never straddle
    markers, so cell owner == owner of the containing leaf); conversely
    every cell of L itself is local, so the non-local owner set of the
    dilated box is exactly the 26-adjacent remote rank set.  Only leaves
    whose box has a Morton-extreme corner off this rank recurse.
    """
    if not len(local):
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    lo, hi = dilated_boxes(local)
    kmin = morton_encode(lo[:, 0], lo[:, 1], lo[:, 2])
    kmax = morton_encode(hi[:, 0], hi[:, 1], hi[:, 2])
    owners = owners_of_keys(markers, np.stack([kmin, kmax]))
    cand = np.flatnonzero((owners != rank).any(axis=0))
    it, rk = box_owner_pairs(lo[cand], hi[cand], cand, markers)
    remote = rk != rank
    return it[remote], rk[remote]


def ripple_full_sweep(local, dirs, klo, khi, extra):
    """``(leaves, rounds)`` of the whole-tree sweep, repeated to a fixed
    point; ``extra`` may be ``None`` or empty."""
    rounds = 0
    while True:
        srcs = local if extra is None else OctantArray.concat([local, extra])
        keys = local.keys()
        levels = local.level.astype(np.int64)
        mark = np.zeros(len(local), dtype=bool)
        h = srcs.lengths()
        slv = srcs.level.astype(np.int64)
        for d in dirs:
            nx, ny, nz, ok = srcs.neighbor_anchors(d)
            if not ok.any():
                continue
            pk = morton_encode(
                nx[ok] + h[ok] // 2, ny[ok] + h[ok] // 2, nz[ok] + h[ok] // 2
            )
            keep = (pk >= klo) & (pk < khi)
            if not keep.any():
                continue
            idx = np.searchsorted(keys, pk[keep], side="right") - 1
            viol = levels[idx] < slv[ok][keep] - 1
            mark[idx[viol]] = True
        if not mark.any():
            return local, rounds
        kept = local[~mark]
        refined = local[mark].children()
        local = OctantArray.concat([kept, refined]).sort()
        rounds += 1


def balance_full_sweep(tree: LinearOctree, connectivity: str = "edge") -> BalanceResult:
    """Serial BALANCETREE by full sweeps."""
    leaves, rounds = ripple_full_sweep(
        tree.leaves, directions_for(connectivity), np.uint64(0), key_range_size(0), None
    )
    return BalanceResult(
        tree=LinearOctree(leaves, presorted=True),
        leaves_added=len(leaves) - len(tree),
        rounds=rounds,
    )


def morton_markers(comm, local: OctantArray) -> np.ndarray:
    """The octree's own partition markers: one Morton key per rank."""
    return curve_markers(comm, local.keys(), key_range_size(0))


def balance_tree_full_sweep(pt, connectivity: str = "edge", kernel=None):
    """Low-collective BALANCETREE of the one-tree ``ParForest`` ``pt``
    around a local ripple ``kernel`` on Morton keys (the full sweep unless
    given).  Returns ``(leaves, leaves_added, exchanges,
    rounds_per_kernel_call)`` — the last is what the public entry point
    does not report."""
    kernel = kernel or ripple_full_sweep
    comm = pt.comm
    dirs = directions_for(connectivity)
    local = pt.octs
    n0 = comm.allreduce(len(local))
    markers = morton_markers(comm, local)
    klo, khi = markers[comm.rank], markers[comm.rank + 1]
    local, r = kernel(local, dirs, klo, khi, None)
    rounds = [r]
    exchanges = 0
    while True:
        idx, dst = ghost_destinations(local, markers, comm.rank)
        sendbufs = []
        for rank in range(comm.size):
            sel = idx[dst == rank]
            sendbufs.append(
                np.stack(
                    [local.x[sel], local.y[sel], local.z[sel], local.level[sel].astype(np.int64)],
                    axis=1,
                )
            )
        blk = np.concatenate(comm.alltoall(sendbufs), axis=0)
        exchanges += 1
        extra = OctantArray(blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3])
        local, r = kernel(local, dirs, klo, khi, extra)
        rounds.append(r)
        if not comm.allreduce(r > 0, op="lor"):
            break
    added = comm.allreduce(len(local)) - n0
    return local, added, exchanges, rounds
