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

from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from .assembly import apply_dirichlet, assemble_scalar
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
    """The stabilised Stokes saddle problem of one Picard pass: the
    operator ``[[A, B^T], [B, -C]]``, its consistent body-force load and
    the block preconditioner's Schur diagonal ``Stilde``.  The serial
    driver and the fleet's lockstep group both solve this one class.

    It carries an optional batch axis, read from the array shapes: a
    ``(nb, ne)`` viscosity and an ``(n_nodes, 3, nb)`` body force make
    ``nb`` same-mesh systems, whose :meth:`rhs`, :meth:`matvec` and
    :meth:`schur_diagonal` carry a trailing ``nb`` axis.  The serial
    system is the case without it.  The saddle operator is applied
    matrix-free through
    :class:`repro.fem.matfree.MatFreeStokesOperator`; its blocks are
    never assembled (the multigrid preconditioner assembles its own
    scalar Poisson blocks, :func:`poisson_blocks`).

    Parameters
    ----------
    mesh:
        The mesh.
    viscosity:
        Per-element viscosity ``eta_e`` (may vary over many orders of
        magnitude): ``(ne,)``, or ``(nb, ne)`` for a batch.
    body_force:
        Nodal body force density (e.g. ``Ra T e_z``, from
        :func:`repro.rhea.convection.buoyancy`): ``(n_nodes, 3)``, or
        ``(n_nodes, 3, nb)`` for a batch; the consistent load is the
        nodal mass applied per component.
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
        self.viscosity = _per_element(mesh, viscosity)
        batch = self.viscosity.shape[:-1]
        n = mesh.n_independent
        self.n_u = 3 * n
        self.n_p = n
        self.bc_kind = bc
        self.bc = velocity_bcs(mesh, bc)
        self.matfree = MatFreeStokesOperator(mesh, self.viscosity, bc, self.bc.dofs)

        # consistent body-force load; the Dirichlet values are
        # homogeneous, so eliminating them from the rhs is zeroing the
        # constrained entries (the operator side is folded into the
        # matfree gather)
        self.f = np.zeros((self.n_u, *batch), dtype=np.float64)
        if body_force is not None:
            bf = np.asarray(body_force, dtype=np.float64)
            if bf.shape != (mesh.n_nodes, 3, *batch):
                raise ValueError(
                    f"body_force must be {(mesh.n_nodes, 3, *batch)} to match "
                    f"the viscosity, got {bf.shape}"
                )
            M_node = node_mass(mesh)
            for a in range(3):
                self.f[a * n : (a + 1) * n] = mesh.Z.T @ (M_node @ bf[:, a])
        self.f[self.bc.dofs] = 0.0

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Rebind the viscosity for a later Picard pass: same mesh, load,
        boundary conditions and batch width, so only the operator's two
        element scale vectors are recomputed."""
        eta = _per_element(self.mesh, viscosity)
        self.matfree.update_viscosity(eta)
        self.viscosity = eta

    @property
    def n_dof(self) -> int:
        return self.n_u + self.n_p

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the full saddle operator [[A, B^T], [B, -C]]."""
        return self.matfree.apply(x)

    def rhs(self) -> np.ndarray:
        """``[f; 0]``, with a trailing batch axis in a batch (a fresh
        array per call)."""
        b = np.zeros((self.n_dof, *self.f.shape[1:]), dtype=np.float64)
        b[: self.n_u] = self.f
        return b

    def schur_diagonal(self) -> np.ndarray:
        """``Stilde``: inverse-viscosity-weighted lumped pressure mass,
        ``(n,)``, or ``(n, nb)`` in a batch."""
        return lumped_scalar_mass(self.mesh, 1.0 / self.viscosity)


def _per_element(mesh: Mesh, viscosity: np.ndarray) -> np.ndarray:
    """``viscosity`` as float64, checked to be ``(ne,)`` or ``(nb, ne)``
    (finiteness and sign are checked by the operator)."""
    eta = np.asarray(viscosity, dtype=np.float64)
    if eta.ndim not in (1, 2) or eta.shape[-1] != mesh.n_elements:
        raise ValueError(
            f"viscosity must be per-element, (ne,) or (nb, ne) with ne = "
            f"{mesh.n_elements}, got {eta.shape}"
        )
    return eta
