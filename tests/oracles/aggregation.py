"""Sequential greedy root-point aggregation: the per-node form of the
three passes that ``repro.solvers.amg.aggregate`` runs with array
operations.  The two do not pick the same roots (the vectorised pass 1 is
a seeded parallel independent set), so the tests compare coverage,
aggregate counts and V-cycle quality, not the assignment itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def aggregate_reference(S: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Sequential greedy root-point aggregation.

    Returns ``(agg, n_agg)`` where ``agg[i]`` is the aggregate index of
    node ``i`` (every node is assigned).
    """
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    indptr, indices = S.indptr, S.indices
    n_agg = 0
    # pass 1: roots whose whole strong neighborhood is free
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if len(nbrs) and np.any(agg[nbrs] >= 0):
            continue
        agg[i] = n_agg
        agg[nbrs] = n_agg
        n_agg += 1
    # pass 2: attach stragglers to a neighboring aggregate
    unassigned = np.flatnonzero(agg < 0)
    for i in unassigned:
        nbrs = indices[indptr[i] : indptr[i + 1]]
        hit = nbrs[agg[nbrs] >= 0] if len(nbrs) else nbrs
        if len(hit):
            agg[i] = agg[hit[0]]
    # pass 3: remaining isolated nodes become singleton aggregates
    for i in np.flatnonzero(agg < 0):
        agg[i] = n_agg
        n_agg += 1
    return agg, n_agg
