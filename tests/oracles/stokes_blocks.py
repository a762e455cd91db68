"""The assembled blocks of a :class:`repro.fem.StokesSystem`, and the
checks that read them.

``StokesSystem`` applies its saddle operator matrix-free and assembles
nothing.  The tests compare that apply against the blocks built here:
``A`` (the Dirichlet-eliminated strain stiffness, ``assemble_vector`` of
``strain_stiffness``), ``B`` (the negative divergence with constrained
velocity columns zeroed) and ``C`` (the Dohrmann-Bochev pressure
stabilization).  Each function takes a serial (one-column) system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import (
    apply_dirichlet,
    assemble_divergence,
    assemble_scalar,
    assemble_vector,
)
from repro.fem.hexops import ElementOps

_OPS = ElementOps()


def viscous_block(st) -> sp.csr_matrix:
    """``A``: the strain stiffness with Dirichlet rows and columns
    replaced by identity."""
    A = assemble_vector(st.mesh, _OPS.strain_stiffness(st.mesh.element_sizes(), st.viscosity))
    return apply_dirichlet(A, None, st.bc.dofs)[0]


def divergence_block(st) -> sp.csr_matrix:
    """``B``: ``-(divergence)`` with constrained-velocity columns
    zeroed."""
    mesh = st.mesh
    B = -assemble_divergence(mesh, _OPS.divergence(mesh.element_sizes()))
    col_mask = np.ones(st.n_u)
    col_mask[st.bc.dofs] = 0.0
    return B @ sp.diags(col_mask)


def stabilization_block(st) -> sp.csr_matrix:
    """``C``: the inverse-viscosity-scaled pressure stabilization."""
    mesh = st.mesh
    return assemble_scalar(mesh, _OPS.pressure_stabilization(mesh.element_sizes(), st.viscosity))


def saddle_matrix(st) -> sp.csr_matrix:
    """``[[A, B^T], [B, -C]]`` from the three assembled blocks."""
    B = divergence_block(st)
    return sp.bmat([[viscous_block(st), B.T], [B, -stabilization_block(st)]], format="csr")


def apply_divergence(st, u: np.ndarray) -> np.ndarray:
    """``B u`` through the divergence rows of the saddle operator's
    element matrix (no assembled ``B``)."""
    op = st.matfree
    Ue = (op.gu.G @ u).reshape(24, st.mesh.n_elements)
    return op.gp.GT @ ((op.Me[24:, :24] @ Ue) * op.s**2).ravel()


def velocity_divergence_norm(st, x: np.ndarray) -> float:
    """``||B u||``: the discrete divergence residual of a solution."""
    return float(np.linalg.norm(apply_divergence(st, x[: st.n_u])))


def project_pressure_mean(st, x: np.ndarray) -> np.ndarray:
    """``x`` with the constant-pressure null component removed
    (enclosed-flow Stokes fixes pressure only up to a constant)."""
    out = x.copy()
    p = out[st.n_u :]
    p -= p.mean()
    return out
