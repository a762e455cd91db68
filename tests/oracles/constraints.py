"""Per-node loop de-duplication of hanging-node constraint rows, as
``repro.mesh.extract.extract_submesh`` did it before the index build was
vectorised (``_first_discovery``)."""

from __future__ import annotations

import numpy as np


def first_discovery_loop(child, parent, weight):
    """Keep, for every hanging node, the first block of rows in discovery
    order: 2 rows when that block is an edge block (weight 1/2), else 4."""
    if not len(child):
        return child, parent, weight
    order = np.argsort(child, kind="stable")
    child_s, parent_s, weight_s = child[order], parent[order], weight[order]
    starts = np.flatnonzero(np.r_[True, child_s[1:] != child_s[:-1]])
    keep_rows = []
    for s in starts:
        take = 2 if weight_s[s] == 0.5 else 4
        keep_rows.append(np.arange(s, s + take))
    keep = np.concatenate(keep_rows)
    return child_s[keep], parent_s[keep], weight_s[keep]
