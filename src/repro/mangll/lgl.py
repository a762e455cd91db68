"""Legendre-Gauss-Lobatto nodes, weights, and 1-D spectral operators.

MANGLL's spectral elements place nodes at the tensor product of LGL points
and integrate with LGL quadrature, "which reduces the block diagonal DG
mass matrix to a diagonal" (Section VII).  This module supplies the 1-D
ingredients: nodes/weights, the differentiation matrix, and Lagrange
interpolation matrices (used both for nonconforming face integration and
for AMR projection between levels).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "lgl_nodes",
    "diff_matrix",
    "lagrange_basis_at",
]


def lgl_nodes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """LGL nodes and quadrature weights on [-1, 1] for polynomial order
    ``p`` (``p + 1`` nodes).  Exact for polynomials of degree ``2p - 1``.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    if p == 1:
        return np.array([-1.0, 1.0], dtype=np.float64), np.array([1.0, 1.0], dtype=np.float64)
    # interior nodes: roots of P'_p
    cp = np.zeros(p + 1, dtype=np.float64)
    cp[p] = 1.0
    dcp = npleg.legder(cp)
    interior = npleg.legroots(dcp)
    x = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    Pp = npleg.legval(x, cp)
    w = 2.0 / (p * (p + 1) * Pp**2)
    return x, w


def lagrange_basis_at(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(len(pts), len(nodes)) matrix of Lagrange basis values: row ``i``
    evaluates all node-basis polynomials at ``pts[i]``."""
    nodes = np.asarray(nodes, dtype=np.float64)
    pts = np.asarray(pts, dtype=np.float64)
    n = len(nodes)
    out = np.ones((len(pts), n))
    for j in range(n):
        for k in range(n):
            if k != j:
                out[:, j] *= (pts - nodes[k]) / (nodes[j] - nodes[k])
    return out


def diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix on arbitrary distinct nodes
    (barycentric formula)."""
    x = np.asarray(nodes, dtype=np.float64)
    n = len(x)
    # barycentric weights
    w = np.ones(n)
    for j in range(n):
        for k in range(n):
            if k != j:
                w[j] /= x[j] - x[k]
    D = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
        D[i, i] = -D[i].sum()
    return D
