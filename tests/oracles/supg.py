"""Term-by-term SUPG element matrices: diffusion, convection and the
streamline term as separate broadcast ``(n, 8, 8)`` sums, which
``ElementOps.supg_operator`` replaced with one ``(n, 9) @ (9, 64)``
product; and the assembled SUPG operator."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import assemble_scalar
from repro.fem.hexops import ElementOps


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


def assembled_operator(eq) -> sp.csr_matrix:
    """The SUPG operator of a serial
    :class:`~repro.fem.advection.AdvectionDiffusion` as one assembled
    CSR, the reference its matrix-free rate is checked against."""
    sizes = eq.mesh.element_sizes()
    elem = ElementOps().supg_operator(sizes, eq.vel, eq.kappa, eq.tau)
    return assemble_scalar(eq.mesh, elem)
