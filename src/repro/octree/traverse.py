"""Recursive partition-marker traversals (p4est-style, search-free).

Isaac, Burstedde, Wilcox & Ghattas ("Recursive Algorithms for Distributed
Forests of Octrees", arXiv:1406.0089) find a leaf's remote neighbors by
top-down traversals of the partition markers instead of sampling
candidate points and querying their owners: because each rank owns a
*contiguous* key interval and no leaf straddles a marker, the set of
ranks owning any axis-aligned box of cells can be computed locally by
recursive bisection of the box — no communication at all.

The kernels here take keys and boxes, not a forest; the one destination
rule built on them (:func:`repro.forest.recursive._forest_destinations`,
which BALANCETREE and the ghost layer both use) lives with the forest:

- :func:`owners_of_keys` — the owning rank of each curve key.
- :func:`box_owner_pairs` — all ``(item, rank)`` pairs such that ``rank``
  owns at least one cell of ``item``'s inclusive coordinate box.
  The recursion narrows the candidate rank range with the owners of the
  box's Morton-extreme corners and splits at the highest differing
  coordinate bit, so each box resolves in ``O(#ranks touched · levels)``.
- :func:`dilated_boxes` — each octant's box grown by one cell, whose
  remote owners are exactly the ranks owning a 26-adjacent leaf.
"""

from __future__ import annotations

import numpy as np

from .morton import ROOT_LEN, morton_encode
from .octants import OctantArray

__all__ = [
    "owners_of_keys",
    "box_owner_pairs",
    "dilated_boxes",
]


def owners_of_keys(markers: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Owning rank of each curve key (finest-level Morton keys for the
    octree's markers, composite keys for the forest's)."""
    keys = np.asarray(keys, dtype=np.uint64)
    return np.searchsorted(markers[1:-1], keys, side="right").astype(np.int64)


def _msb(v: np.ndarray) -> np.ndarray:
    """Highest set bit position of each int64 (exact; -1 where v == 0)."""
    # frexp exponents are exact for values < 2**53; coordinates are < 2**22.
    return np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1


def box_owner_pairs(
    lo: np.ndarray,
    hi: np.ndarray,
    items: np.ndarray,
    markers: np.ndarray,
    key_offsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(item, rank)`` pairs such that ``rank`` owns >= 1 cell of the
    item's inclusive box ``[lo[i], hi[i]]`` (coordinates in cell units).

    ``key_offsets`` (uint64, per item) is OR-ed onto each Morton key —
    used by the forest layer to embed per-tree boxes in the composite
    ``(tree << 57) | reduced_key`` ordering.

    The Morton key is monotone along each axis, so the keys of a box's
    cells lie in ``[key(lo), key(hi)]`` and the owning ranks in
    ``[owner(key(lo)), owner(key(hi))]``.  Equal corner owners resolve a
    box immediately; otherwise the extreme owners are emitted (they own
    the corner cells) and, if any rank lies strictly between them, the box
    is split at the highest differing coordinate bit of its most
    Morton-significant axis and both halves recurse.  The loop below runs
    the recursion breadth-first over *all* boxes at once, so each level is
    a handful of vectorized array ops.
    """
    lo = np.asarray(lo, dtype=np.int64).reshape(-1, 3).copy()
    hi = np.asarray(hi, dtype=np.int64).reshape(-1, 3).copy()
    items = np.asarray(items, dtype=np.int64)
    if key_offsets is None:
        offs = np.zeros(len(items), dtype=np.uint64)
    else:
        offs = np.asarray(key_offsets, dtype=np.uint64).copy()
    out_items: list[np.ndarray] = []
    out_ranks: list[np.ndarray] = []
    while len(items):
        kmin = offs | morton_encode(lo[:, 0], lo[:, 1], lo[:, 2])
        kmax = offs | morton_encode(hi[:, 0], hi[:, 1], hi[:, 2])
        omin = owners_of_keys(markers, kmin)
        omax = owners_of_keys(markers, kmax)
        out_items.append(items)
        out_ranks.append(omin)
        ne = omax != omin
        if ne.any():
            out_items.append(items[ne])
            out_ranks.append(omax[ne])
        # only boxes with ranks strictly between the corner owners recurse
        split = omax > omin + 1
        if not split.any():
            break
        lo, hi, items, offs = lo[split], hi[split], items[split], offs[split]
        diff = lo ^ hi
        msb = _msb(diff)
        # Morton significance of axis a's bit b is 3*b + a (x interleaved
        # least significant); split the most significant differing bit.
        sig = np.where(diff > 0, 3 * msb + np.arange(3)[None, :], -1)
        ax = np.argmax(sig, axis=1)
        rows = np.arange(len(items))
        m = msb[rows, ax]
        sp = (hi[rows, ax] >> m) << m  # lowest hi-corner key with bit m set
        left_hi = hi.copy()
        left_hi[rows, ax] = sp - 1
        right_lo = lo.copy()
        right_lo[rows, ax] = sp
        lo = np.concatenate([lo, right_lo])
        hi = np.concatenate([left_hi, hi])
        items = np.concatenate([items, items])
        offs = np.concatenate([offs, offs])
    if not out_items:
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    it = np.concatenate(out_items)
    rk = np.concatenate(out_ranks)
    # dedup (item, rank) pairs, sorted by item then rank
    code = it * np.int64(len(markers)) + rk
    _, first = np.unique(code, return_index=True)
    return it[first], rk[first]


def dilated_boxes(octs: OctantArray, unit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive coordinate boxes of each octant dilated by one ``unit``-
    sized cell on every side, clamped to the root cube, in units of
    ``unit`` finest cells.  (``unit=4`` gives the forest layer's reduced
    level-19 grid.)  A remote rank owns a leaf 26-adjacent to the octant
    iff it owns a cell of this box."""
    n = ROOT_LEN // unit
    x = octs.x // unit
    y = octs.y // unit
    z = octs.z // unit
    h = octs.lengths() // unit
    lo = np.stack([x, y, z], axis=1)
    hi = np.minimum(lo + h[:, None], n - 1)
    lo = np.maximum(lo - 1, 0)
    return lo, hi
