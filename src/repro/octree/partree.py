"""Distributed linear octrees — the parallel ALPS tree functions.

Each rank owns a contiguous segment of the global Morton-ordered leaf
sequence (Figure 3).  The only global metadata any rank stores is one
Morton key per rank — the *partition markers* — obtained by an
``allgather``, exactly as described in Section IV-A ("the only global
information that is required to be stored is one long integer per core").

Implemented here, with the paper's names:

- :func:`new_tree` — NEWTREE: every rank grows the coarse uniform tree
  and prunes to its Morton segment (no communication).
- :func:`refine_tree` — completely local.
- :func:`coarsen_tree` — local for fully-owned families; families that
  straddle a partition marker are resolved with one exchange so the
  result is identical for every rank count.
- :func:`balance_tree` — BALANCETREE: communication-free local balance,
  then boundary-leaf exchanges (typically two) until a global fixed point.
- :func:`partition_tree` — PARTITIONTREE: equal-count (or weighted)
  repartition along the space-filling curve via all-to-all; returns the
  routing plan that TRANSFERFIELDS reuses for element data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel import SimComm
from .balance import _ripple_local
from .linear import LinearOctree
from .morton import MAX_LEVEL, key_range_size
from .octants import OctantArray, directions_for
from .traverse import ghost_destinations

__all__ = [
    "ParTree",
    "new_tree",
    "refine_tree",
    "coarsen_tree",
    "balance_tree",
    "exchange_boundary_leaves",
    "partition_tree",
    "partition_markers",
    "owners_of_keys",
    "gather_tree",
    "TransferPlan",
]

_TOTAL_KEYS = np.uint64(1) << np.uint64(3 * MAX_LEVEL)


@dataclass
class ParTree:
    """One rank's view of the distributed octree."""

    comm: SimComm
    local: OctantArray  # sorted leaves of this rank's Morton segment

    def __len__(self) -> int:
        return len(self.local)

    @property
    def keys(self) -> np.ndarray:
        return self.local.keys()

    @property
    def levels(self) -> np.ndarray:
        return self.local.level

    def global_count(self) -> int:
        return self.comm.allreduce(len(self.local))

    def global_offset(self) -> int:
        return self.comm.exscan(len(self.local))

    def level_histogram(self) -> dict[int, int]:
        """Global leaves-per-level counts (collective)."""
        counts = np.zeros(MAX_LEVEL + 1, dtype=np.int64)
        lv, c = np.unique(self.local.level, return_counts=True)
        counts[lv.astype(np.int64)] = c
        total = self.comm.allreduce(counts)
        return {int(i): int(n) for i, n in enumerate(total) if n > 0}


def partition_markers(comm: SimComm, local: OctantArray) -> np.ndarray:
    """Allgather the partition boundary keys.

    Returns ``m`` of length ``P + 1`` with ``m[0] = 0`` and
    ``m[P] = 8**MAX_LEVEL``; rank ``r`` owns exactly the keys in
    ``[m[r], m[r+1])``.  Ranks with no leaves own an empty interval.
    """
    first = int(local.keys()[0]) if len(local) else -1
    firsts = comm.allgather(first)
    p = comm.size
    m = np.empty(p + 1, dtype=np.uint64)
    m[p] = _TOTAL_KEYS
    for r in range(p - 1, -1, -1):
        m[r] = np.uint64(firsts[r]) if firsts[r] >= 0 else m[r + 1]
    m[0] = np.uint64(0)
    return m


def owners_of_keys(markers: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Owning rank of each finest-level Morton key."""
    keys = np.asarray(keys, dtype=np.uint64)
    return np.searchsorted(markers[1:-1], keys, side="right").astype(np.int64)


def new_tree(comm: SimComm, coarse_level: int) -> ParTree:
    """NEWTREE: build the uniform tree at ``coarse_level`` and keep this
    rank's equal share of the Morton-ordered leaves (no communication)."""
    full = OctantArray.uniform(coarse_level)
    n = len(full)
    base, rem = divmod(n, comm.size)
    lo = comm.rank * base + min(comm.rank, rem)
    hi = lo + base + (1 if comm.rank < rem else 0)
    return ParTree(comm, full[lo:hi])


def refine_tree(pt: ParTree, mask: np.ndarray) -> ParTree:
    """REFINETREE: replace marked local leaves by their children (local)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return pt
    return ParTree(pt.comm, pt.local.refine(mask))


def coarsen_tree(pt: ParTree, mask: np.ndarray) -> tuple[ParTree, int]:
    """COARSENTREE: coarsen complete families of 8 marked sibling leaves.

    Fully-local families merge without communication.  Families whose
    eight siblings straddle a partition marker are resolved with one
    aggregate/decide/notify exchange: each rank reports its share of any
    marker-crossing candidate parent to the parent's owner; the owner
    accepts the family iff exactly eight marked same-level leaves tile
    the parent over all contributions; contributors then drop their
    siblings and the owner inserts the parent.  (The paper skips split
    families as "a minor restriction", but that makes the coarsened tree
    depend on where the markers fall — rank-count invariance and restart
    determinism require resolving them; see DESIGN.md section 4e.)
    """
    comm = pt.comm
    mask = np.asarray(mask, dtype=bool)
    lt = LinearOctree(pt.local, presorted=True)
    new_lt, nfam = lt.coarsen(mask)
    if comm.size == 1:
        return ParTree(comm, new_lt.leaves), nfam

    # -- candidates whose parent key range crosses a partition marker
    local = pt.local
    keys = local.keys()
    levels = local.level.astype(np.int64)
    markers = partition_markers(comm, local)
    lo, hi = markers[comm.rank], markers[comm.rank + 1]

    cand = mask & (levels > 0)
    shift = np.uint64(3) * (
        np.uint64(MAX_LEVEL) - levels.astype(np.uint64) + np.uint64(1)
    )
    pkey = (keys >> shift) << shift
    plen = key_range_size(np.maximum(levels - 1, 0))
    spanning = cand & ((pkey < lo) | (pkey + plen > hi))

    pk, pl = pkey[spanning], levels[spanning]
    if len(pk):
        uniq = np.unique(np.stack([pk, pl.astype(np.uint64)], axis=1), axis=0)
        pk, pl = uniq[:, 0], uniq[:, 1].astype(np.int64)
    # a marker is crossed by at most one ancestor per level, so there are
    # O(MAX_LEVEL) candidates per rank — plain loops are fine here
    send = [np.empty((0, 4), dtype=np.uint64) for _ in range(comm.size)]
    for p, l in zip(pk, pl):
        end = p + key_range_size(l - 1)
        i0 = int(np.searchsorted(keys, p, side="left"))
        i1 = int(np.searchsorted(keys, end, side="left"))
        nm = int(np.count_nonzero(mask[i0:i1] & (levels[i0:i1] == l)))
        dest = int(owners_of_keys(markers, np.asarray([p], dtype=np.uint64))[0])
        row = np.array(
            [[p, np.uint64(l), np.uint64(i1 - i0), np.uint64(nm)]], dtype=np.uint64
        )
        send[dest] = np.concatenate([send[dest], row])
    recv = comm.alltoallv_arrays(send)

    # -- owner decides: coarsen iff 8 marked level-l leaves tile the parent.
    # Ranks holding only unmarked/deeper leaves inside the parent do not
    # report, but that only loses counts: an accepted family's eight
    # reported leaves already tile the parent, so nothing can be missing.
    rows = (
        np.concatenate(recv, axis=0)
        if any(len(r) for r in recv)
        else np.empty((0, 4), dtype=np.uint64)
    )
    src = (
        np.concatenate([np.full(len(r), j, dtype=np.int64) for j, r in enumerate(recv)])
        if len(rows)
        else np.empty(0, dtype=np.int64)
    )
    reply = [np.empty((0, 2), dtype=np.uint64) for _ in range(comm.size)]
    accepted = np.empty(0, dtype=np.uint64)
    if len(rows):
        order = np.lexsort((rows[:, 1], rows[:, 0]))
        rows, src = rows[order], src[order]
        newgrp = np.ones(len(rows), dtype=bool)
        newgrp[1:] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
        gid = np.cumsum(newgrp) - 1
        nt_tot = np.bincount(gid, weights=rows[:, 2].astype(np.float64))
        nm_tot = np.bincount(gid, weights=rows[:, 3].astype(np.float64))
        ok = (nt_tot == 8) & (nm_tot == 8)
        hit = ok[gid]
        for j in range(comm.size):
            sel = hit & (src == j)
            reply[j] = rows[sel][:, :2].copy()
        starts = np.flatnonzero(newgrp)
        accepted = rows[starts[ok], 0]
    dec = comm.alltoallv_arrays(reply)

    # -- apply: drop local siblings of accepted families, owner inserts parent
    drops = (
        np.concatenate(dec, axis=0)
        if any(len(d) for d in dec)
        else np.empty((0, 2), dtype=np.uint64)
    )
    leaves = new_lt.leaves
    if len(drops) or len(accepted):
        k2 = new_lt.keys
        keep = np.ones(len(k2), dtype=bool)
        for p, l in drops:
            end = p + key_range_size(int(l) - 1)
            i0 = int(np.searchsorted(k2, p, side="left"))
            i1 = int(np.searchsorted(k2, end, side="left"))
            keep[i0:i1] = False
        parts = [leaves[keep]]
        if len(accepted):
            # the parent anchor key is the first child's key, which this
            # rank owns — locate it and promote to the parent octant
            fidx = np.searchsorted(keys, accepted, side="left")
            if not np.array_equal(keys[fidx], accepted):
                raise AssertionError("first sibling of accepted family not local")
            parts.append(local[fidx].parents())
        leaves = LinearOctree(OctantArray.concat(parts)).leaves
    return ParTree(comm, leaves), nfam + len(accepted)


def exchange_boundary_leaves(
    comm: SimComm, local: OctantArray, markers: np.ndarray
) -> list[np.ndarray]:
    """Send every local leaf to exactly the remote ranks that own a leaf
    26-adjacent to it (destinations by marker recursion,
    :func:`~repro.octree.traverse.ghost_destinations`), in one alltoall.
    Returns the received ``(n, 4)`` int64 blocks ``x, y, z, level``, one
    per source rank."""
    idx, dst = ghost_destinations(local, markers, comm.rank)
    sendbufs = []
    for r in range(comm.size):  # lint: allow-loop (per-rank, not per-element)
        sel = idx[dst == r]
        buf = np.empty((len(sel), 4), dtype=np.int64)
        buf[:, 0] = local.x[sel]
        buf[:, 1] = local.y[sel]
        buf[:, 2] = local.z[sel]
        buf[:, 3] = local.level[sel]
        sendbufs.append(buf)
    return comm.alltoall(sendbufs)


def balance_tree(
    pt: ParTree,
    connectivity: str = "edge",
    max_rounds: int = 64,
) -> tuple[ParTree, int, int]:
    """BALANCETREE: local 2:1 balance, then boundary-leaf exchanges with
    the insulation-layer neighbors until a convergence allreduce reports
    a global fixed point (Isaac et al., arXiv:1406.0089).

    Balancing only refines in place, so partition markers are fixed for
    the whole call: one allgather up front, then per exchange one
    alltoall of boundary leaves (:func:`exchange_boundary_leaves`) plus
    one convergence allreduce.  The 2:1 closure of a complete octree is
    unique, so the result is the serial :func:`~repro.octree.balance.balance`
    of the gathered tree for every rank count.

    Returns ``(tree, leaves_added, exchanges)``: the third value is the
    number of boundary exchanges (the insulation-propagation depth,
    almost always <= 2), which ``max_rounds`` bounds — exceeding it
    raises ``RuntimeError``.
    """
    comm = pt.comm
    dirs = directions_for(connectivity)
    local = pt.local
    n0 = comm.allreduce(len(local))
    markers = partition_markers(comm, local)
    klo, khi = markers[comm.rank], markers[comm.rank + 1]
    local, _ = _ripple_local(local, dirs, klo, khi, None)
    exchanges = 0
    while exchanges < max_rounds:
        blk = np.concatenate(exchange_boundary_leaves(comm, local, markers), axis=0)
        exchanges += 1
        extra = OctantArray(blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3])
        local, rounds = _ripple_local(local, dirs, klo, khi, extra)
        if not comm.allreduce(rounds > 0, op="lor"):
            break
    else:
        raise RuntimeError("parallel balance did not converge")
    out = ParTree(comm, local)
    added = comm.allreduce(len(local)) - n0
    return out, added, exchanges


@dataclass
class TransferPlan:
    """Routing produced by PARTITIONTREE, reused by TRANSFERFIELDS.

    ``send_slices[r] = (lo, hi)`` — the local element index range (in the
    pre-partition Morton order) shipped to rank ``r``.  Because the global
    Morton order is preserved, concatenating received blocks in rank order
    yields data aligned with the post-partition local element order.
    """

    send_slices: list[tuple[int, int]]
    n_new_local: int

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


def partition_tree(
    pt: ParTree, weights: np.ndarray | None = None
) -> tuple[ParTree, TransferPlan]:
    """PARTITIONTREE: repartition the space-filling curve for load balance.

    With ``weights=None`` each rank receives an equal share of the global
    leaf count; otherwise the curve is cut at equal cumulative weight.
    Completely redistributes the tree with one all-to-all (the paper notes
    no explicit penalty is placed on data movement).
    """
    comm = pt.comm
    n_local = len(pt.local)
    if weights is None:
        offset, total = comm.global_offsets(n_local)
        p = comm.size
        base, rem = divmod(total, p)
        # Destination of global index g.
        tgt_starts = np.array(
            [r * base + min(r, rem) for r in range(p + 1)], dtype=np.int64
        )
        gidx = offset + np.arange(n_local, dtype=np.int64)
        dest = np.searchsorted(tgt_starts[1:], gidx, side="right")
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n_local,):
            raise ValueError("weights length mismatch")
        my_sum = w.sum()
        prev = comm.exscan(my_sum)
        total_w = comm.allreduce(my_sum)
        cum = prev + np.cumsum(w) - w  # cumulative weight before each leaf
        p = comm.size
        cuts = total_w * np.arange(1, p, dtype=np.float64) / p
        dest = np.searchsorted(cuts, cum, side="right")
    # dest is nondecreasing; build contiguous slices per destination.
    send_slices = []
    for r in range(comm.size):
        lo = int(np.searchsorted(dest, r, side="left"))
        hi = int(np.searchsorted(dest, r, side="right"))
        send_slices.append((lo, hi))
    packed = np.empty((n_local, 4), dtype=np.int64)
    packed[:, 0] = pt.local.x
    packed[:, 1] = pt.local.y
    packed[:, 2] = pt.local.z
    packed[:, 3] = pt.local.level
    recv = comm.alltoall([packed[lo:hi] for lo, hi in send_slices])
    recv = [b for b in recv if len(b)]
    if recv:
        blk = np.concatenate(recv, axis=0)
    else:
        blk = packed[:0]
    new_local = OctantArray(blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3])
    plan = TransferPlan(send_slices=send_slices, n_new_local=len(new_local))
    return ParTree(comm, new_local), plan


def gather_tree(pt: ParTree) -> LinearOctree:
    """Collect the full tree on every rank (verification/testing only)."""
    comm = pt.comm
    packed = np.empty((len(pt.local), 4), dtype=np.int64)
    packed[:, 0] = pt.local.x
    packed[:, 1] = pt.local.y
    packed[:, 2] = pt.local.z
    packed[:, 3] = pt.local.level
    parts = comm.allgather(packed)
    blk = np.concatenate([p for p in parts if len(p)], axis=0)
    return LinearOctree(
        OctantArray(blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3]), presorted=True
    )
