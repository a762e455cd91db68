"""The variable-viscosity Stokes saddle-point system (Section III).

Equal-order trilinear velocity/pressure with Dohrmann-Bochev polynomial
pressure stabilization gives the symmetric indefinite system

    [ A   B^T ] [u]   [f]
    [ B   -C  ] [p] = [0]

where ``A`` is the viscous strain-rate operator, ``B`` the (negative)
discrete divergence, and ``C`` the inverse-viscosity-scaled stabilization.
The system is solved by preconditioned MINRES (:mod:`repro.solvers`); the
preconditioner blocks exposed here follow the paper exactly:

- ``Atilde`` — a *scalar* variable-viscosity Poisson operator applied to
  each velocity component (the discrete vector Laplacian approximation of
  ``A``), approximated by one geometric-multigrid V-cycle per
  application (:mod:`repro.solvers.gmg`);
- ``Stilde`` — the inverse-viscosity-weighted lumped pressure mass, a
  diagonal spectrally equivalent to the Schur complement.

Velocity boundary conditions: ``"free_slip"`` (zero normal component on
every face — the mantle convection choice) or ``"no_slip"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from .assembly import (
    apply_dirichlet,
    assemble_divergence,
    assemble_scalar,
    assemble_vector,
)
from .hexops import ElementOps
from .matfree import MatFreeStokesOperator, lumped_scalar_mass

__all__ = ["StokesSystem", "node_mass", "velocity_bcs", "poisson_blocks"]

_OPS = ElementOps()


@dataclass
class _BCInfo:
    dofs: np.ndarray  # constrained velocity dof indices (component-blocked)
    per_component: list[np.ndarray]  # constrained scalar dofs per component


def velocity_bcs(mesh: Mesh, bc: str) -> _BCInfo:
    """The homogeneous velocity Dirichlet conditions of ``mesh`` (cached
    per mesh): free-slip pins the normal component on its two faces,
    no-slip pins every component on the whole boundary.  The one rule
    behind the saddle operator and both multigrid preconditioners."""

    def build():
        n = mesh.n_independent
        per_component = []
        for a in range(3):
            if bc == "free_slip":
                nodes = mesh.boundary_node_mask(axis=a, side=0) | mesh.boundary_node_mask(
                    axis=a, side=1
                )
            elif bc == "no_slip":
                nodes = mesh.boundary_node_mask()
            else:
                raise ValueError(f"unknown bc {bc!r}")
            dofs = mesh.dof_of_node[np.flatnonzero(nodes)]
            per_component.append(np.unique(dofs[dofs >= 0]))
        dofs = np.concatenate([a * n + d for a, d in enumerate(per_component)])
        return _BCInfo(dofs=dofs, per_component=per_component)

    return operator_cache(mesh).get(("stokes_bcs", bc), build)


def node_mass(mesh: Mesh) -> sp.csr_matrix:
    """The unconstrained consistent nodal mass (cached per mesh): the
    Stokes body-force load of a nodal field ``f`` is ``Z^T (M f)``."""
    return operator_cache(mesh).get(
        "node_mass",
        lambda: assemble_scalar(mesh, _OPS.mass(mesh.element_sizes()), constrain=False),
    )


def poisson_blocks(mesh: Mesh, viscosity: np.ndarray, bc: str) -> list[sp.csr_matrix]:
    """The scalar variable-viscosity Poisson operator ``Atilde``, one
    copy per velocity component with that component's Dirichlet rows
    (Section III: for constant viscosity and Dirichlet BCs, ``A`` and
    ``Atilde`` are equivalent).  One assembly serves all three; the
    geometric multigrid assembles it on every mesh of its hierarchy."""
    K = assemble_scalar(mesh, _OPS.stiffness(mesh.element_sizes(), viscosity))
    return [
        apply_dirichlet(K, None, dofs)[0]
        for dofs in velocity_bcs(mesh, bc).per_component
    ]


class StokesSystem:
    """Stokes blocks, boundary conditions, and the saddle operator used
    by MINRES.

    The saddle operator is applied matrix-free through
    :class:`repro.fem.matfree.MatFreeStokesOperator`; the assembled
    blocks ``A``/``B``/``C`` are built lazily, only if something asks for
    them (the multigrid preconditioner assembles its own scalar Poisson
    blocks, :func:`poisson_blocks`, either way).

    Parameters
    ----------
    mesh:
        The mesh.
    viscosity:
        Per-element viscosity ``eta_e`` (may vary over many orders of
        magnitude).
    body_force:
        ``(n_nodes, 3)`` nodal body force density (e.g. ``Ra T e_r``); the
        consistent load is the nodal mass applied per component.
    bc:
        ``"free_slip"`` or ``"no_slip"``.
    """

    def __init__(
        self,
        mesh: Mesh,
        viscosity: np.ndarray,
        body_force: np.ndarray | None = None,
        bc: str = "free_slip",
    ):
        self.mesh = mesh
        self.viscosity = np.asarray(viscosity, dtype=np.float64)
        if self.viscosity.shape != (mesh.n_elements,):
            raise ValueError("viscosity must be per-element")
        if np.any(self.viscosity <= 0):
            raise ValueError("viscosity must be positive")
        n = mesh.n_independent
        self._A = self._C = self._B = None

        # consistent body-force load
        self.f = np.zeros(3 * n, dtype=np.float64)
        if body_force is not None:
            bf = np.asarray(body_force, dtype=np.float64)
            if bf.shape != (mesh.n_nodes, 3):
                raise ValueError("body_force must be (n_nodes, 3)")
            M_node = node_mass(mesh)
            for a in range(3):
                self.f[a * n : (a + 1) * n] = mesh.Z.T @ (M_node @ bf[:, a])

        # velocity boundary conditions
        self.bc_kind = bc
        self.bc = velocity_bcs(mesh, bc)
        # Dirichlet values are homogeneous, so eliminating them from the
        # rhs is just zeroing the constrained entries; the operator-side
        # elimination is folded into the matfree gather
        self.f[self.bc.dofs] = 0.0
        self.matfree = MatFreeStokesOperator(mesh, self.viscosity, bc, self.bc.dofs)

        self.n_u = 3 * n
        self.n_p = n

    # -- assembled blocks (lazy) -------------------------------------------------

    @property
    def A(self) -> sp.csr_matrix:
        """Dirichlet-eliminated strain stiffness (assembled on demand)."""
        if self._A is None:
            with obs.phase("assemble"):
                A = assemble_vector(
                    self.mesh,
                    _OPS.strain_stiffness(self.mesh.element_sizes(), self.viscosity),
                )
                self._A, _ = apply_dirichlet(A, None, self.bc.dofs)
        return self._A

    @property
    def C(self) -> sp.csr_matrix:
        """Pressure stabilization block (assembled on demand)."""
        if self._C is None:
            with obs.phase("assemble"):
                self._C = assemble_scalar(
                    self.mesh,
                    _OPS.pressure_stabilization(
                        self.mesh.element_sizes(), self.viscosity
                    ),
                )
        return self._C

    @property
    def B(self) -> sp.csr_matrix:
        """Column-masked negative divergence (viscosity-independent,
        cached per mesh/BC, assembled on demand)."""
        if self._B is None:
            with obs.phase("assemble"):
                self._B = operator_cache(self.mesh).get(
                    ("stokes_B", self.bc_kind), self._build_divergence
                )
        return self._B

    def _build_divergence(self) -> sp.csr_matrix:
        """-(divergence) with constrained-velocity columns zeroed."""
        mesh = self.mesh
        B = -assemble_divergence(mesh, _OPS.divergence(mesh.element_sizes()))
        col_mask = np.ones(3 * mesh.n_independent)
        col_mask[self.bc.dofs] = 0.0
        return B @ sp.diags(col_mask)

    # -- saddle operator -----------------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self.n_u + self.n_p

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the full saddle operator [[A, B^T], [B, -C]]."""
        return self.matfree.apply(x)

    def rhs(self) -> np.ndarray:
        b = np.zeros(self.n_dof, dtype=np.float64)
        b[: self.n_u] = self.f
        return b

    def project_pressure_mean(self, x: np.ndarray) -> np.ndarray:
        """Remove the constant-pressure null component (enclosed-flow
        Stokes determines pressure only up to a constant)."""
        out = x.copy()
        p = out[self.n_u :]
        p -= p.mean()
        return out

    # -- preconditioner ingredients ----------------------------------------------

    def schur_diagonal(self) -> np.ndarray:
        """``Stilde``: inverse-viscosity-weighted lumped pressure mass."""
        return lumped_scalar_mass(self.mesh, 1.0 / self.viscosity)

    def velocity_divergence_norm(self, x: np.ndarray) -> float:
        """||B u|| — discrete divergence residual of a solution vector."""
        return float(np.linalg.norm(self.matfree.apply_divergence(x[: self.n_u])))
