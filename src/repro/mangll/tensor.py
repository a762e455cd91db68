"""Element-batched tensor algebra on ``(p+1)^3`` spectral elements.

:class:`DerivativeKernel` holds the 1-D LGL nodes, weights and
differentiation matrix of order ``p`` and the three dense ``(p+1)^3``
reference-space derivative matrices built from them with :func:`kron3`;
the DG solver assembles its volume term, metric terms included, from
those into one sparse matrix per mesh (:mod:`repro.mangll.dg`).  The
low-order FEM matrix-free apply engine (:mod:`repro.fem.matfree`) builds
its fused Gauss-point evaluation matrices from 1-D factors through the
same :func:`kron3`.

The Section VII comparison of the matrix-based and tensor-product
gradient kernels, with their flop and byte models, is the figure suite's
subject (``tests/figures/kernels.py``); no run applies either kernel.
"""

from __future__ import annotations

import numpy as np

from .lgl import diff_matrix, lgl_nodes

__all__ = ["DerivativeKernel", "kron3"]


def kron3(az: np.ndarray, ay: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """``kron(Az, Ay, Ax)`` for 1-D factor matrices, matching the node
    ordering ``u[..., k, j, i]`` (x fastest).  Used to *fuse* a
    sum-factorized operator into a single small dense matrix when the 1-D
    extent is tiny (the ``n = 2`` trilinear FEM case, where per-axis
    passes cost more in memory traffic than they save in flops)."""
    return np.kron(az, np.kron(ay, ax))


class DerivativeKernel:
    """The reference-space derivative operators of an order-``p``
    spectral element.

    Node ordering within an element is ``u[..., k, j, i]`` flattened
    C-style (i fastest along r): ``nodes`` and ``weights`` are the 1-D LGL
    rule, ``D`` the ``(n, n)`` 1-D differentiation matrix, and
    ``Dr_full`` / ``Ds_full`` / ``Dt_full`` the dense ``(n^3, n^3)``
    derivative matrices along r, s and t.
    """

    def __init__(self, p: int):
        self.p = p
        self.n = p + 1
        self.nodes, self.weights = lgl_nodes(p)
        self.D = diff_matrix(self.nodes)  # (n, n)
        I = np.eye(self.n)
        self.Dr_full = kron3(I, I, self.D)
        self.Ds_full = kron3(I, self.D, I)
        self.Dt_full = kron3(self.D, I, I)
