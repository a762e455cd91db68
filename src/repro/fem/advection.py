"""SUPG-stabilized advection-diffusion (the energy equation, eq. 3).

Galerkin discretizations of strongly advection-dominated transport
oscillate; the paper stabilizes with streamline upwind / Petrov-Galerkin
(SUPG) and advances in time with an explicit predictor-corrector scheme,
because at mantle Peclet numbers the equation is hyperbolic in character.

This module builds the stabilized spatial operator on an adapted mesh and
provides the explicit predictor-corrector step (Heun form: predict with
forward Euler, correct with the trapezoid average), plus the CFL time step
bound used by the application.
"""

from __future__ import annotations

import numpy as np

from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from .assembly import assemble_rhs, assemble_scalar, lumped_mass
from .hexops import ElementOps
from .matfree import MatFreeAdvectionOperator

__all__ = ["AdvectionDiffusion", "element_velocity_from_nodal", "supg_tau"]

_OPS = ElementOps()


def element_velocity_from_nodal(mesh: Mesh, u_full: np.ndarray) -> np.ndarray:
    """Per-element advection velocity: average of the 8 corner values.

    ``u_full`` is (3, n_nodes) or (n_nodes, 3); returns (n_elements, 3).
    """
    u = np.asarray(u_full, dtype=np.float64)
    if u.shape[0] == 3 and u.ndim == 2 and u.shape[1] != 3:
        u = u.T
    return u[mesh.element_nodes].mean(axis=1)


def supg_tau(sizes: np.ndarray, vel: np.ndarray, kappa: float, dt: float | None = None) -> np.ndarray:
    """Per-element SUPG stabilization parameter.

    The standard inverse-quadrature form
    ``tau = ((2|a|/h)^2 + (4 kappa C / h^2)^2 [+ (2/dt)^2])^{-1/2}``
    with ``h`` the smallest element edge; degenerates gracefully in both
    the advection- and diffusion-dominated limits.
    """
    h = sizes.min(axis=1)
    speed = np.linalg.norm(vel, axis=1)
    terms = (2.0 * speed / h) ** 2 + (12.0 * kappa / h**2) ** 2
    if dt is not None:
        terms = terms + (2.0 / dt) ** 2
    return 1.0 / np.sqrt(np.maximum(terms, 1e-300))


class AdvectionDiffusion:
    """SUPG advection-diffusion operator with explicit time stepping.

    The operator is applied matrix-free through
    :class:`repro.fem.matfree.MatFreeAdvectionOperator`; the assembled
    ``A`` is built lazily on access.

    Parameters
    ----------
    mesh:
        The (possibly adapted) mesh.
    kappa:
        Thermal diffusivity (non-dimensional; 1 in eq. 3).
    vel:
        (n_elements, 3) advection velocity per element.
    source:
        Uniform internal heating ``gamma``.
    dirichlet:
        List of ``(axis, side, value)`` tuples fixing the field on domain
        faces; remaining boundaries are natural (insulated).
    """

    def __init__(
        self,
        mesh: Mesh,
        kappa: float,
        vel: np.ndarray,
        source: float = 0.0,
        dirichlet: list[tuple[int, int, float]] | None = None,
    ):
        self.mesh = mesh
        self.kappa = float(kappa)
        self.vel = np.asarray(vel, dtype=np.float64)
        if self.vel.shape != (mesh.n_elements, 3):
            raise ValueError("vel must be (n_elements, 3)")
        sizes = mesh.element_sizes()
        self.tau = supg_tau(sizes, self.vel, self.kappa)

        self._A = None
        self.matfree = MatFreeAdvectionOperator(mesh, self.kappa, self.vel, self.tau)

        cache = operator_cache(mesh)
        mass_e = cache.get("elem_mass", lambda: _OPS.mass(sizes))
        self.ML = cache.get("lumped_mass", lambda: lumped_mass(mesh, mass_e))

        # source: gamma * int N_i, plus SUPG source tau * gamma * int a.grad N_i
        load_e = source * mass_e.sum(axis=2)
        if source != 0.0:
            load_e += (
                source
                * self.tau[:, None]
                * _OPS.convection(sizes, self.vel).sum(axis=2)
            )
        self.b = assemble_rhs(mesh, load_e)

        self.dirichlet = dirichlet or []
        self._bc_mask = np.zeros(mesh.n_independent, dtype=bool)
        self._bc_values = np.zeros(mesh.n_independent, dtype=np.float64)
        for axis, side, value in self.dirichlet:

            def build(axis=axis, side=side):
                nodes = mesh.boundary_node_mask(axis=axis, side=side)
                dofs = mesh.dof_of_node[np.flatnonzero(nodes)]
                return dofs[dofs >= 0]

            dofs = cache.get(("bdofs", axis, side), build)
            self._bc_mask[dofs] = True
            self._bc_values[dofs] = value

    # -- semi-discrete operator ---------------------------------------------

    def _assemble_operator(self):
        sizes = self.mesh.element_sizes()
        elem = _OPS.stiffness(sizes, self.kappa)
        elem += _OPS.convection(sizes, self.vel)
        elem += self.tau[:, None, None] * _OPS.grad_grad(sizes, self.vel)
        return assemble_scalar(self.mesh, elem)

    @property
    def A(self):
        """Assembled SUPG operator (built on demand)."""
        if self._A is None:
            self._A = self._assemble_operator()
        return self._A

    def apply_bcs(self, T: np.ndarray) -> np.ndarray:
        """Overwrite Dirichlet dofs with their prescribed values."""
        out = T.copy()
        out[self._bc_mask] = self._bc_values[self._bc_mask]
        return out

    def rate(self, T: np.ndarray) -> np.ndarray:
        """dT/dt on independent dofs (Dirichlet rows frozen)."""
        r = (self.b - self.matfree.apply(T)) / self.ML
        r[self._bc_mask] = 0.0
        return r

    # -- time stepping --------------------------------------------------------------

    def cfl_dt(self, cfl: float = 0.5) -> float:
        """Stable explicit step: min over elements of the advective and
        diffusive limits."""
        sizes = self.mesh.element_sizes()
        h = sizes.min(axis=1)
        speed = np.linalg.norm(self.vel, axis=1)
        adv = np.where(speed > 0, h / np.maximum(speed, 1e-300), np.inf)
        diff = h**2 / (6.0 * self.kappa) if self.kappa > 0 else np.full_like(h, np.inf)
        dt = cfl * float(np.minimum(adv, diff).min())
        if not np.isfinite(dt):
            raise ValueError("no finite CFL bound (zero velocity and diffusivity)")
        return dt

    def step(self, T: np.ndarray, dt: float) -> np.ndarray:
        """One explicit predictor-corrector step (Heun).

        Predictor: ``T* = T + dt * L(T)``;
        corrector: ``T1 = T + dt/2 * (L(T) + L(T*))``.
        """
        T = self.apply_bcs(T)
        k1 = self.rate(T)
        Tstar = self.apply_bcs(T + dt * k1)
        k2 = self.rate(Tstar)
        return self.apply_bcs(T + 0.5 * dt * (k1 + k2))

    def advance(self, T: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
        for _ in range(n_steps):
            T = self.step(T, dt)
        return T
