"""DG field transfer between nested forests (MANGLL's INTERPOLATEFIELDS).

When the forest is adapted, the elementwise polynomial solution must move
to the new element set:

- **refinement**: the child element is a sub-box of its parent, so the
  parent polynomial is *evaluated* at the child's LGL nodes — exact (the
  embedding of the polynomial space);
- **coarsening**: each new coarse node samples the value of whichever old
  child element contains it (nodal injection, the standard choice for
  collocation DG);
- **unchanged** elements copy their values.

Because both element boxes live in the same tree and are axis-aligned,
the evaluation operator factorizes into three 1-D Lagrange matrices
(Kronecker structure), one per axis.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..octree import morton_encode
from .lgl import lagrange_basis_at

__all__ = ["dg_transfer"]


def _eval_matrix(kern, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """(n^3, n^3) evaluation operator from an old element's nodal values
    to points at ``ref_new`` per axis, where the new element's reference
    coordinate r maps into the old element as ``scale * r + shift``."""
    g = kern.nodes
    mats = []
    for a in range(3):
        pts = scale[a] * g + shift[a]
        mats.append(lagrange_basis_at(g, pts))
    # node index = (z * n + y) * n + x  ->  kron(Bz, By, Bx)
    return np.kron(np.kron(mats[2], mats[1]), mats[0])


def dg_transfer(dg_old, u_old: np.ndarray, dg_new) -> np.ndarray:
    """Transfer a nodal DG field between two DGAdvection discretizations
    on nested forests of the same connectivity and equal order.

    Exact for refinement; nodal injection for coarsening.  Fully
    vectorized: one batched containing-leaf lookup per tree classifies
    every new element, refinement applies one evaluation operator per
    (level-delta, child-octant) group with a single batched matmul, and
    coarsening samples all nodes of all coarsened elements in one einsum.
    """
    with obs.phase("dg/transfer"):
        return _transfer(dg_old, u_old, dg_new)


def _transfer(dg_old, u_old: np.ndarray, dg_new) -> np.ndarray:
    if dg_old.p != dg_new.p:
        raise ValueError("transfer requires equal polynomial order")
    if dg_old.conn is not dg_new.conn and dg_old.conn.n_trees != dg_new.conn.n_trees:
        raise ValueError("transfer requires the same connectivity")
    kern = dg_new.kern
    n = kern.n
    n3 = dg_new.n3
    u_old = np.asarray(u_old, dtype=np.float64).reshape(dg_old.ne, dg_old.n3)
    out = np.empty((dg_new.ne, n3), dtype=np.float64)
    g = kern.nodes

    a2 = np.stack(
        [dg_new.octs.x, dg_new.octs.y, dg_new.octs.z], axis=1
    ).astype(np.int64)
    h2 = dg_new.octs.lengths().astype(np.int64)
    l2 = dg_new.octs.level.astype(np.int64)
    a1_all = np.stack(
        [dg_old.octs.x, dg_old.octs.y, dg_old.octs.z], axis=1
    ).astype(np.int64)
    h1_all = dg_old.octs.lengths().astype(np.int64)
    l1_all = dg_old.octs.level.astype(np.int64)
    old_keys = dg_old.octs.keys()

    # batched containing-old-leaf lookup of every new element's center
    center = a2 + (h2 // 2)[:, None]
    ck = morton_encode(center[:, 0], center[:, 1], center[:, 2])
    e1 = np.empty(dg_new.ne, dtype=np.int64)
    tree_bases: dict[int, tuple[int, np.ndarray]] = {}
    for t in np.unique(dg_new.tree_ids):
        sel_old = dg_old.tree_ids == t
        keys_t = old_keys[sel_old]
        base = int(np.flatnonzero(sel_old)[0])
        tree_bases[int(t)] = (base, keys_t)
        sel = dg_new.tree_ids == t
        e1[sel] = base + (np.searchsorted(keys_t, ck[sel], side="right") - 1)
    l1 = l1_all[e1]

    # unchanged elements: copy
    cp = np.flatnonzero(l1 == l2)
    out[cp] = u_old[e1[cp]]

    # refinement: one evaluation operator per (level-delta, child-octant)
    rf = np.flatnonzero(l1 < l2)
    if len(rf):
        da = a2[rf] - a1_all[e1[rf]]
        q = da // h2[rf, None]  # child position within the parent
        delta = l2[rf] - l1[rf]
        # compact group ids from (delta, qx, qy, qz)
        packed = (delta << 48) | (q[:, 0] << 32) | (q[:, 1] << 16) | q[:, 2]
        for pk in np.unique(packed):
            grp = rf[packed == pk]
            rep = grp[0]
            hp = h1_all[e1[rep]]
            ratio = h2[rep] / hp
            shift = (2.0 * (a2[rep] - a1_all[e1[rep]]) + h2[rep]) / hp - 1.0
            M = _eval_matrix(kern, np.full(3, ratio), shift)
            out[grp] = u_old[e1[grp]] @ M.T
    # coarsening: nodal injection, all elements and nodes in one sweep
    co = np.flatnonzero(l1 > l2)
    if len(co):
        T, S, R = np.meshgrid(g, g, g, indexing="ij")
        ref = np.stack([R.ravel(), S.ravel(), T.ravel()], axis=1)  # (n3, 3)
        pts = (
            a2[co][:, None, :].astype(np.float64)
            + (ref[None, :, :] + 1.0) * 0.5 * h2[co][:, None, None]
        )
        pint = np.minimum(
            pts.astype(np.int64), (a2[co] + h2[co][:, None] - 1)[:, None, :]
        )
        flat = pint.reshape(-1, 3)
        pk = morton_encode(flat[:, 0], flat[:, 1], flat[:, 2])
        tpt = np.repeat(dg_new.tree_ids[co], n3)
        eos = np.empty(len(flat), dtype=np.int64)
        for t in np.unique(dg_new.tree_ids[co]):
            base, keys_t = tree_bases[int(t)]
            s = tpt == t
            eos[s] = base + (np.searchsorted(keys_t, pk[s], side="right") - 1)
        loc = (
            2.0 * (pts.reshape(-1, 3) - a1_all[eos]) / h1_all[eos, None] - 1.0
        )
        loc = np.clip(loc, -1.0, 1.0)
        Bx = lagrange_basis_at(g, loc[:, 0])
        By = lagrange_basis_at(g, loc[:, 1])
        Bz = lagrange_basis_at(g, loc[:, 2])
        uo = u_old[eos].reshape(-1, n, n, n)
        vals = np.einsum("ma,mb,mc,mabc->m", Bz, By, Bx, uo)
        out[co] = vals.reshape(len(co), n3)
    return out.ravel()
