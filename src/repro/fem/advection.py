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
from ..solvers.timestep import heun_step
from .assembly import assemble_rhs, lumped_mass
from .hexops import ElementOps
from .matfree import MatFreeAdvectionOperator

__all__ = [
    "AdvectionDiffusion",
    "cfl_bound",
    "dirichlet_dofs",
    "element_velocity_from_nodal",
    "supg_tau",
]

_OPS = ElementOps()


def element_velocity_from_nodal(mesh: Mesh, u_full: np.ndarray) -> np.ndarray:
    """Per-element advection velocity: average of the 8 corner values of
    the ``(n_nodes, 3)`` nodal field; returns ``(n_elements, 3)``."""
    u = np.asarray(u_full, dtype=np.float64)
    if u.shape != (mesh.n_nodes, 3):
        raise ValueError(f"u_full must be (n_nodes, 3) = ({mesh.n_nodes}, 3), got {u.shape}")
    return u[mesh.element_nodes].mean(axis=1)


def supg_tau(sizes: np.ndarray, vel: np.ndarray, kappa) -> np.ndarray:
    """Per-element SUPG stabilization parameter.

    The standard inverse-quadrature form
    ``tau = ((2|a|/h)^2 + (4 kappa C / h^2)^2)^{-1/2}``
    with ``h`` the smallest element edge; degenerates gracefully in both
    the advection- and diffusion-dominated limits.  ``vel`` is
    ``(ne, 3)`` with scalar ``kappa``, or ``(nb, ne, 3)`` with ``kappa``
    scalar or ``(nb,)``; the result is ``(ne,)`` or ``(nb, ne)``.
    """
    h = sizes.min(axis=1)
    speed = np.linalg.norm(vel, axis=-1)
    kappa = np.asarray(kappa, dtype=np.float64)[..., None]
    terms = (2.0 * speed / h) ** 2 + (12.0 * kappa / h**2) ** 2
    return 1.0 / np.sqrt(np.maximum(terms, 1e-300))


def cfl_bound(sizes: np.ndarray, vel: np.ndarray, kappa) -> np.ndarray:
    """Largest stable explicit step: min over elements of the advective
    ``h / |a|`` and diffusive ``h^2 / (6 kappa)`` limits (``inf`` where
    neither applies, and over an empty element set).  Shapes as in
    :func:`supg_tau`; one bound per batch column."""
    h = sizes.min(axis=1)
    speed = np.linalg.norm(vel, axis=-1)
    kappa = np.asarray(kappa, dtype=np.float64)[..., None]
    adv = np.where(speed > 0, h / np.maximum(speed, 1e-300), np.inf)
    diff = np.where(kappa > 0, h**2 / np.maximum(6.0 * kappa, 1e-300), np.inf)
    return np.minimum(adv, diff).min(axis=-1, initial=np.inf)


def dirichlet_dofs(mesh: Mesh, dirichlet) -> tuple[np.ndarray, np.ndarray]:
    """Independent-dof mask and prescribed values of the ``(axis, side,
    value)`` Dirichlet faces (each face's dof list is memoized on the
    mesh's operator cache)."""
    cache = operator_cache(mesh)
    mask = np.zeros(mesh.n_independent, dtype=bool)
    values = np.zeros(mesh.n_independent, dtype=np.float64)
    for axis, side, value in dirichlet:

        def build(axis=axis, side=side):
            nodes = mesh.boundary_node_mask(axis=axis, side=side)
            dofs = mesh.dof_of_node[np.flatnonzero(nodes)]
            return dofs[dofs >= 0]

        dofs = cache.get(("bdofs", axis, side), build)
        mask[dofs] = True
        values[dofs] = value
    return mask, values


class AdvectionDiffusion:
    """SUPG advection-diffusion operator with explicit time stepping.

    The operator is applied matrix-free through
    :class:`repro.fem.matfree.MatFreeAdvectionOperator` and never
    assembled (the tests' assembled reference is
    ``tests/oracles/supg.py``).  Like its operator it carries an
    optional batch axis: ``nb`` independent fields on one mesh advance
    together as the columns of ``T``, each with its own velocity,
    diffusivity and time step (the fleet's lockstep group); the serial
    solver is the case without that axis.

    Parameters
    ----------
    mesh:
        The (possibly adapted) mesh.
    kappa:
        Thermal diffusivity (non-dimensional; 1 in eq. 3); scalar, or
        ``(nb,)`` in a batch.
    vel:
        (n_elements, 3) advection velocity per element, or
        (nb, n_elements, 3) for a batch; fields are then ``(n, nb)`` and
        ``dt`` / ``cfl`` may be ``(nb,)``.
    source:
        Uniform internal heating ``gamma``; scalar, or ``(nb,)`` in a
        batch.
    dirichlet:
        List of ``(axis, side, value)`` tuples fixing the field on domain
        faces; remaining boundaries are natural (insulated).
    """

    def __init__(
        self,
        mesh: Mesh,
        kappa,
        vel: np.ndarray,
        source: float | np.ndarray = 0.0,
        dirichlet: list[tuple[int, int, float]] | None = None,
    ):
        self.mesh = mesh
        self.kappa = np.asarray(kappa, dtype=np.float64)
        self.vel = np.asarray(vel, dtype=np.float64)
        if self.vel.ndim not in (2, 3) or self.vel.shape[-2:] != (mesh.n_elements, 3):
            raise ValueError("vel must be (n_elements, 3) or (nb, n_elements, 3)")
        # per-dof vectors broadcast against T: (n,) serial, (n, 1) batched
        col = (slice(None), None) if self.vel.ndim == 3 else slice(None)
        sizes = mesh.element_sizes()
        self.tau = supg_tau(sizes, self.vel, self.kappa)

        self.matfree = MatFreeAdvectionOperator(mesh, self.kappa, self.vel, self.tau)

        cache = operator_cache(mesh)
        mass_e = cache.get("elem_mass", lambda: _OPS.mass(sizes))
        self.ML = cache.get("lumped_mass", lambda: lumped_mass(mesh, mass_e))[col]

        # source: gamma * int N_i, plus SUPG source tau * gamma * int a.grad N_i;
        # one load column per batch column
        source = np.broadcast_to(np.asarray(source, dtype=np.float64), self.vel.shape[:-2])
        gamma = source[..., None, None]
        load_e = gamma * mass_e.sum(axis=2)
        if np.any(source != 0.0):
            load_e = load_e + gamma * self.tau[..., None] * _OPS.streamline_load(sizes, self.vel)
        self.b = assemble_rhs(mesh, load_e)

        self.dirichlet = dirichlet or []
        self._bc_mask, values = dirichlet_dofs(mesh, self.dirichlet)
        self._bc_fill = values[self._bc_mask][col]

    # -- semi-discrete operator ---------------------------------------------

    def apply_bcs(self, T: np.ndarray) -> np.ndarray:
        """Overwrite Dirichlet dofs with their prescribed values."""
        out = T.copy()
        out[self._bc_mask] = self._bc_fill
        return out

    def rate(self, T: np.ndarray) -> np.ndarray:
        """dT/dt on independent dofs (Dirichlet rows frozen)."""
        r = (self.b - self.matfree.apply(T)) / self.ML
        r[self._bc_mask] = 0.0
        return r

    # -- time stepping --------------------------------------------------------------

    def cfl_dt(self, cfl=0.5):
        """Stable explicit step: ``cfl`` times :func:`cfl_bound` (a float,
        or one step per batch column)."""
        dt = cfl * cfl_bound(self.mesh.element_sizes(), self.vel, self.kappa)
        if not np.all(np.isfinite(dt)):
            raise ValueError("no finite CFL bound (zero velocity and diffusivity)")
        return dt if dt.ndim else float(dt)

    def step(self, T: np.ndarray, dt) -> np.ndarray:
        """One explicit predictor-corrector step
        (:func:`~repro.solvers.timestep.heun_step`).

        Predictor: ``T* = T + dt * L(T)``;
        corrector: ``T1 = T + dt/2 * (L(T) + L(T*))``.  :meth:`rate`
        zeroes the Dirichlet rows, so values imposed once stay imposed.
        """
        return heun_step(self.rate, self.apply_bcs(T), dt)

    def advance(self, T: np.ndarray, dt, n_steps: int) -> np.ndarray:
        for _ in range(n_steps):
            T = self.step(T, dt)
        return T
