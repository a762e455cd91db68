"""Term-by-term SUPG element matrices: diffusion, convection and the
streamline term as separate broadcast ``(n, 8, 8)`` sums, which
``ElementOps.supg_operator`` replaced with one ``(n, 9) @ (9, 64)``
product; and the SUPG operator assembled from them through the COO
path."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.hexops import ElementOps

from .assembly import coo_scalar


def grad_grad(ops: ElementOps, sizes: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """SUPG streamline matrices ``int (a.grad N_i)(a.grad N_j)``.

    Expands to ``sum_ab a_a a_b int d_a N_i d_b N_j`` using the pure
    (Sxx, ...) and mixed (Sxy, ...) shape matrices.
    """
    hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
    ax, ay, az = vel[:, 0], vel[:, 1], vel[:, 2]
    out = (
        (ax * ax * hy * hz / hx)[:, None, None] * ops.Sxx[None]
        + (ay * ay * hx * hz / hy)[:, None, None] * ops.Syy[None]
        + (az * az * hx * hy / hz)[:, None, None] * ops.Szz[None]
    )
    # mixed terms appear twice (ab and ba): S_ab^T = S_ba shape-wise
    out += (ax * ay * hz)[:, None, None] * (ops.Sxy + ops.Sxy.T)[None]
    out += (ax * az * hy)[:, None, None] * (ops.Sxz + ops.Sxz.T)[None]
    out += (ay * az * hx)[:, None, None] * (ops.Syz + ops.Syz.T)[None]
    return out


def supg_operator_termwise(ops: ElementOps, sizes, vel, kappa, tau) -> np.ndarray:
    """``kappa K + N(a) + tau G(a)`` as the constructors summed it."""
    elem = ops.stiffness(sizes, kappa)
    elem += ops.convection(sizes, vel)
    elem += tau[:, None, None] * grad_grad(ops, sizes, vel)
    return elem


def assembled_operator(mesh, kappa, vel, tau) -> sp.csr_matrix:
    """The SUPG operator of one column of
    :class:`~repro.fem.advection.AdvectionDiffusion` on ``mesh``: the
    term-by-term element matrices through the COO scatter and ``Z^T A Z``
    (``tests/oracles/assembly.py``), the reference the solver's Galerkin
    product is checked against."""
    elem = supg_operator_termwise(ElementOps(), mesh.element_sizes(), vel, kappa, tau)
    return coo_scalar(mesh, elem)
