"""Sort-merge join kernel for face iteration.

:func:`row_lookup` joins two integer tables in one stable sort and one
sweep, in the style of p4est's recursive ``iterate``; the forest face
matcher (:func:`repro.forest.faces.match_faces`) pairs every element
face with its neighbor through it, with no per-face search.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_lookup"]


def row_lookup(a_cols: tuple, b_cols: tuple) -> np.ndarray:
    """For each row of table A (a tuple of equal-length integer columns),
    the index of the equal row in table B, or -1.

    B's rows must be unique (each A row matches at most one).  A single
    lexsort of the stacked tables — B rows first, so stability puts a B
    row directly before its equal A rows — turns the join into one sweep.
    """
    na = len(a_cols[0])
    nb = len(b_cols[0])
    out = np.full(na, -1, dtype=np.int64)
    if na == 0 or nb == 0:
        return out
    cols = [
        np.concatenate([np.asarray(b), np.asarray(a)])
        for a, b in zip(a_cols, b_cols)
    ]
    order = np.lexsort(tuple(cols[::-1]))  # cols[0] is the primary key
    is_b = order < nb
    # latest B row seen at each merged position: track the *slot* in the
    # merged order (monotone), not the B row index (B is unsorted)
    slots = np.arange(len(order), dtype=np.int64)
    last = np.maximum.accumulate(np.where(is_b, slots, -1))
    aslot = np.flatnonzero(~is_b)
    aidx = order[aslot] - nb
    ls = last[aslot]
    hit = ls >= 0
    li = np.zeros(len(ls), dtype=np.int64)
    li[hit] = order[ls[hit]]
    for a, b in zip(a_cols, b_cols):
        hit &= np.asarray(b)[li] == np.asarray(a)[aidx]
    out[aidx[hit]] = li[hit]
    return out
