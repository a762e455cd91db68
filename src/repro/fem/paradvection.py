"""Distributed SUPG advection-diffusion (the Section-V benchmark solver).

Each rank assembles the stabilized operator from its *owned* elements on
the local union (owned + ghost) mesh; the semi-discrete residual is then
globally assembled with one shared-dof sum-exchange per operator
application, and the lumped mass likewise (once).  The explicit
predictor-corrector step therefore costs two exchanges per time step plus
one allreduce for the CFL bound — the classic surface-to-volume
communication pattern that makes the transport solver weakly scalable.

Only what is distributed lives here: the owned-element CSR operator, the
``exchange_sum`` inside :meth:`ParAdvectionDiffusion.rate` and the
``allreduce(min)`` of the CFL bound.  The operator is the serial
assembly's Galerkin product (:func:`repro.fem.assembly.galerkin`) over
the gather of the owned elements alone: hanging-node constraints fold in
as the product runs, with no COO triple.  The stabilization parameter, the
Dirichlet mask, the elementwise CFL bound and the Heun step are the
serial solver's functions (:mod:`repro.fem.advection`,
:func:`repro.solvers.timestep.heun_step`).

P-invariance: stepping a field here produces bitwise-comparable values to
the serial :class:`~repro.fem.advection.AdvectionDiffusion` on the
gathered mesh (verified in the test suite).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import obs
from ..mesh.parmesh import ParMesh
from ..solvers.timestep import heun_step
from .advection import cfl_bound, dirichlet_dofs, supg_tau
from .assembly import galerkin, gather
from .hexops import ElementOps

__all__ = ["ParAdvectionDiffusion"]

_OPS = ElementOps()


class ParAdvectionDiffusion:
    """Distributed explicit SUPG transport on a :class:`ParMesh`.

    Parameters
    ----------
    pm:
        The distributed mesh.
    kappa:
        Diffusivity.
    velocity:
        Callable mapping (m, 3) physical points to (m, 3) velocities;
        evaluated at element centers.
    dirichlet:
        ``(axis, side, value)`` tuples as in the serial solver.
    """

    def __init__(
        self,
        pm: ParMesh,
        kappa: float,
        velocity: Callable[[np.ndarray], np.ndarray],
        source: float = 0.0,
        dirichlet: list[tuple[int, int, float]] | None = None,
    ):
        self.pm = pm
        self.kappa = float(kappa)
        mesh = pm.mesh
        owned = pm.owned_elements

        with obs.phase("geometry"):
            sizes = mesh.element_sizes()[owned]
            vel = velocity(mesh.element_centers()[owned])
            self.tau = supg_tau(sizes, vel, self.kappa)
            self._owned_sizes = sizes
            self._owned_vel = vel

        # assemble from owned elements only, on union-mesh dofs
        with obs.phase("element_matrices"):
            elem = _OPS.supg_operator(sizes, vel, self.kappa, self.tau)
        with obs.phase("assemble"):
            self.A = self._assemble_owned(elem)
        with obs.phase("lumped_mass_exchange"):
            mass_rows = sizes.prod(axis=1)[:, None] * _OPS.MMM.sum(axis=1)
            # rows of Z sum to one, so lumping Z^T M Z needs no matrix
            self.ML = pm.exchange_sum(self._rhs_owned(mass_rows))
            self.ML[~pm.active] = 1.0  # avoid divide-by-zero at inactive dofs

            # source: gamma * int N_i, plus SUPG source tau * gamma * int a.grad N_i
            load = source * mass_rows
            if source != 0.0:
                load += source * self.tau[:, None] * _OPS.streamline_load(sizes, vel)
            self.b = pm.exchange_sum(self._rhs_owned(load))

        self.dirichlet = dirichlet or []
        self._bc_mask, self._bc_values = dirichlet_dofs(mesh, self.dirichlet)

    # -- owned-element assembly helpers ---------------------------------------

    def _assemble_owned(self, elem_mats: np.ndarray):
        """``Z^T A Z`` of the owned elements on union-mesh dofs: the
        Galerkin product over the owned elements' constraint-folded
        gather (built per operator; the union mesh lives one cycle)."""
        mesh = self.pm.mesh
        g = gather(mesh.Z[mesh.element_nodes[self.pm.owned_elements].ravel()])
        return galerkin(g, elem_mats, g)

    def _rhs_owned(self, elem_vecs: np.ndarray) -> np.ndarray:
        mesh = self.pm.mesh
        en = mesh.element_nodes[self.pm.owned_elements]
        b = np.bincount(en.ravel(), weights=elem_vecs.ravel(), minlength=mesh.n_nodes)
        return mesh.Z.T @ b

    # -- operator -------------------------------------------------------------------

    def apply_bcs(self, T: np.ndarray) -> np.ndarray:
        out = T.copy()
        out[self._bc_mask] = self._bc_values[self._bc_mask]
        return out

    def rate(self, T: np.ndarray) -> np.ndarray:
        """Globally assembled dT/dt on this rank's union-mesh dofs."""
        # the stiffness contribution is local (owned elements only) and
        # needs the exchange; b was already globally assembled in setup
        local = -(self.A @ T)
        with obs.phase("exchange"):
            r = self.pm.exchange_sum(local) + self.b
        r = r / self.ML
        r[self._bc_mask] = 0.0
        r[~self.pm.active] = 0.0
        return r

    def cfl_dt(self, cfl: float = 0.5) -> float:
        local = float(cfl_bound(self._owned_sizes, self._owned_vel, self.kappa))
        dt = cfl * self.pm.comm.allreduce(local, op="min")
        if not np.isfinite(dt):
            raise ValueError("no finite CFL bound")
        return dt

    def step(self, T: np.ndarray, dt: float) -> np.ndarray:
        return heun_step(self.rate, self.apply_bcs(T), dt)

    def advance(self, T: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
        for _ in range(n_steps):
            T = self.step(T, dt)
        return T
