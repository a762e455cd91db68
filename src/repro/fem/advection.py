"""SUPG-stabilized advection-diffusion (the energy equation, eq. 3).

Galerkin discretizations of strongly advection-dominated transport
oscillate; the paper stabilizes with streamline upwind / Petrov-Galerkin
(SUPG) and advances in time with an explicit predictor-corrector scheme,
because at mantle Peclet numbers the equation is hyperbolic in character.

This module holds the one transport solver, :class:`AdvectionDiffusion`:
it assembles the stabilized spatial operator on an adapted mesh and takes
the explicit predictor-corrector step (Heun form: predict with forward
Euler, correct with the trapezoid average) at the CFL time step bound.
The serial driver and the fleet run it on a whole mesh; the distributed
pipeline runs it on each rank's owned elements of a
:class:`~repro.mesh.parmesh.ParMesh`
(:class:`~repro.fem.paradvection.ParAdvectionDiffusion`), so serial is
P = 1 of the distributed solver.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from ..mesh.parmesh import ParMesh
from ..solvers.timestep import heun_step
from .assembly import _element_gather, galerkin, gather
from .hexops import ElementOps

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
    """The SUPG advection-diffusion solver with explicit time stepping.

    The operator ``kappa K + N(a) + tau G(a)`` is assembled: the Galerkin
    product (:func:`~repro.fem.assembly.galerkin`) of the SUPG element
    matrices over the constraint-folded gather of the owned elements, one
    CSR per batch column.  ``nb`` independent fields on one mesh advance
    together as the columns of ``T``, each with its own velocity,
    diffusivity and time step (the fleet's lockstep group); the serial
    solver is the case without that axis.  The one-rank and the
    distributed solver differ only in what a
    :class:`~repro.mesh.parmesh.ParMesh` supplies
    (:class:`~repro.fem.paradvection.ParAdvectionDiffusion`): the owned
    elements, the ``exchange_sum`` of the lumped mass, the load and every
    operator application, and the ``allreduce(min)`` of the CFL bound.
    Without one, every element is owned and both are the identity.

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

    # __init__ and advance stay thin: the benchmark's tracer times them
    # and ParAdvectionDiffusion's under separate names, and a traced call
    # must not enter both
    def __init__(
        self,
        mesh: Mesh,
        kappa,
        vel: np.ndarray,
        source: float | np.ndarray = 0.0,
        dirichlet: list[tuple[int, int, float]] | None = None,
    ):
        self._build(mesh, kappa, vel, source, dirichlet)

    def _build(self, mesh: Mesh, kappa, vel, source, dirichlet, pm: ParMesh | None = None):
        """Set up on ``mesh``; with ``pm``, on its owned elements, with
        ``vel`` given per owned element."""
        self.mesh, self.pm = mesh, pm
        self.kappa = np.asarray(kappa, dtype=np.float64)
        self.vel = np.asarray(vel, dtype=np.float64)
        owned = slice(None) if pm is None else pm.owned_elements
        self._owned_nodes = mesh.element_nodes[owned]
        n_owned = len(self._owned_nodes)
        if self.vel.ndim not in (2, 3) or self.vel.shape[-2:] != (n_owned, 3):
            raise ValueError("vel must be (n_elements, 3) or (nb, n_elements, 3)")
        columns = self.vel.shape[:-2]  # () serial, (nb,) batched
        col = (slice(None), None) if columns else slice(None)

        with obs.phase("geometry"):
            self.sizes = mesh.element_sizes()[owned]
            self.tau = supg_tau(self.sizes, self.vel, self.kappa)
        # the SUPG element matrices are nine coefficients per element
        # until the product forms them, a row block at a time
        with obs.phase("element_matrices"):
            kappa_c = np.broadcast_to(self.kappa, columns).reshape(-1)
            elems = [
                _OPS.supg_operator(self.sizes, v, k, t)
                for v, k, t in zip(
                    self.vel.reshape(-1, n_owned, 3), kappa_c, self.tau.reshape(-1, n_owned)
                )
            ]
        with obs.phase("assemble"):
            self.A = self._assemble(elems)
            obs.counter(
                "operator_bytes",
                sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes for A in self.A),
            )
        with obs.phase("lumped_mass_exchange"):
            # rows of Z sum to one, so lumping Z^T M Z needs no matrix
            mass_rows = self.sizes.prod(axis=1)[:, None] * _OPS.MMM.sum(axis=1)
            self.ML = self._exchange(self._scatter(mass_rows))
            idle = np.zeros(mesh.n_independent, dtype=bool) if pm is None else ~pm.active
            self.ML[idle] = 1.0  # no divide-by-zero at dofs no owned element touches
            self.ML = self.ML[col]

            # source: gamma * int N_i, plus SUPG source tau * gamma * int a.grad N_i,
            # one load column per batch column (a zero source is not exchanged:
            # the sum would be exact zeros)
            source = np.broadcast_to(np.asarray(source, dtype=np.float64), columns)
            self.b = np.zeros((mesh.n_independent, *columns), dtype=np.float64)
            if np.any(source != 0.0):
                gamma = source[..., None, None]
                load = gamma * mass_rows
                load += gamma * self.tau[..., None] * _OPS.streamline_load(self.sizes, self.vel)
                self.b = self._exchange(self._scatter(load))

        self.dirichlet = dirichlet or []
        self._bc_mask, values = dirichlet_dofs(mesh, self.dirichlet)
        self._bc_fill = values[self._bc_mask][col]
        self._frozen = self._bc_mask | idle

    # -- owned-element assembly -----------------------------------------------

    def _assemble(self, elems: list) -> list:
        """``Z^T A Z`` of the owned elements for each column's element
        matrices: the Galerkin product over their constraint-folded
        gather (the mesh's cached one when every element is owned; on a
        union mesh, which lives one cycle, built per operator)."""
        mesh = self.mesh
        if self.pm is None:
            g = _element_gather(mesh, "scalar")
        else:
            g = gather(mesh.Z[self._owned_nodes.ravel()])
        return [galerkin(g, elem, g) for elem in elems]

    def _scatter(self, elem_vecs: np.ndarray) -> np.ndarray:
        """``Z^T`` of the owned elements' ``(ne, 8)`` vectors summed at
        their nodes, or of ``(nb, ne, 8)`` ones into ``(n, nb)`` columns."""
        mesh = self.mesh
        nb = len(elem_vecs) if elem_vecs.ndim == 3 else 1
        slots = self._owned_nodes.ravel() + mesh.n_nodes * np.arange(nb)[:, None]
        b = np.bincount(slots.ravel(), weights=elem_vecs.ravel(), minlength=nb * mesh.n_nodes)
        if elem_vecs.ndim == 3:
            b = b.reshape(nb, mesh.n_nodes).T
        return mesh.Z.T @ b

    def _exchange(self, values: np.ndarray) -> np.ndarray:
        """The shared-dof sum over the ranks (the identity on one rank)."""
        return values if self.pm is None else self.pm.exchange_sum(values)

    # -- semi-discrete operator ---------------------------------------------

    def apply_bcs(self, T: np.ndarray) -> np.ndarray:
        """Overwrite Dirichlet dofs with their prescribed values."""
        out = T.copy()
        out[self._bc_mask] = self._bc_fill
        return out

    def rate(self, T: np.ndarray) -> np.ndarray:
        """Globally assembled dT/dt on independent dofs (Dirichlet rows
        and dofs no owned element touches frozen)."""
        if T.ndim == 1:
            AT = self.A[0] @ T
        else:
            AT = np.empty_like(T)
            for j, A in enumerate(self.A):  # lint: allow-loop (one CSR per batch column)
                AT[:, j] = A @ T[:, j]
        # the stiffness contribution is local (owned elements only) and
        # needs the exchange; b was already globally assembled in setup
        r = -AT
        if self.pm is not None:
            with obs.phase("exchange"):
                r = self._exchange(r)
        r = (r + self.b) / self.ML
        r[self._frozen] = 0.0
        return r

    # -- time stepping --------------------------------------------------------------

    def cfl_dt(self, cfl=0.5):
        """Stable explicit step: ``cfl`` times :func:`cfl_bound` (a float,
        or one step per batch column), the minimum over the ranks."""
        bound = cfl_bound(self.sizes, self.vel, self.kappa)
        if self.pm is not None:
            bound = self.pm.comm.allreduce(float(bound), op="min")
        dt = cfl * bound
        if not np.all(np.isfinite(dt)):
            raise ValueError("no finite CFL bound (zero velocity and diffusivity)")
        return dt if np.ndim(dt) else float(dt)

    def step(self, T: np.ndarray, dt) -> np.ndarray:
        """One explicit predictor-corrector step
        (:func:`~repro.solvers.timestep.heun_step`).

        Predictor: ``T* = T + dt * L(T)``;
        corrector: ``T1 = T + dt/2 * (L(T) + L(T*))``.  :meth:`rate`
        zeroes the Dirichlet rows, so values imposed once stay imposed.
        """
        return heun_step(self.rate, self.apply_bcs(T), dt)

    def advance(self, T: np.ndarray, dt, n_steps: int) -> np.ndarray:
        """``n_steps`` calls of :meth:`step` at ``dt``."""
        for _ in range(n_steps):
            T = self.step(T, dt)
        return T
