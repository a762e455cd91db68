"""Lockstep batched execution of same-mesh scenarios.

The fleet's throughput lever: ``B`` scenarios that share one interned
mesh structure advance *together*, stacking their fields along the batch
axis of the element-minor matrix-free kernels
(:class:`repro.fem.matfree.MatFreeStokesOperator` and friends grow an
``nb`` channel in PR 8).  Every GEMM in the apply then amortizes its
gather/geometry traffic over all tenants — the per-scenario work
collapses from ``B`` skinny matvecs into one wide one.

No algorithm is defined here: the Picard iteration is
:func:`repro.rhea.convection.picard`, the temperature advance is
:func:`repro.rhea.convection.advect` (the serial driver is the
one-column case of both), and the Krylov recurrence is
:func:`repro.solvers.minres.batched_minres` (serial ``minres`` is its
one-column case).  :class:`BatchGroup` owns the fleet's part: column
packing, the per-law hierarchies with their Jacobi congruence and the
compaction factory.

Per-scenario physics stays exact: viscosity and Rayleigh number enter as
batched channel scalings, and the recurrence carries an *active mask*
per column, so a tenant whose Picard loop is done drops out by having
its rhs and iterate columns zeroed — MINRES sees a converged zero system
and leaves the column bitwise untouched while the rest keep iterating.
Under ``REPRO_SANITIZE=1`` the Picard loop fingerprint-verifies that
freeze.

The block preconditioner generalizes ``K(c eta) = c K(eta)``: each
job's Poisson block is approximated by the Jacobi congruence
``K_j ~= T_j K_ref T_j`` with ``T_j = diag(sqrt(diag K_j / diag K_ref))``
around one :class:`~repro.solvers.gmg.GeometricMultigrid` per viscosity
law in the batch, built on the element-wise geometric-mean viscosity of
that law's tenants.  The per-column correction ``S_j = 1/T_j`` (applied
on both sides — a congruence, hence SPD and MINRES-valid) absorbs each
tenant's *local* viscosity deviations, not just its overall scale.  A
congruence cannot absorb a yielding lithosphere into an Arrhenius mean,
so the laws do not share levels: tenants are packed law by law, and one
V-cycle over each law's contiguous ``(3n, nb_law)`` column slice serves
all its tenants and velocity components at once.  The diagonals never
need assembly: corner diagonals of a trilinear hex stiffness are equal,
so ``diag K(eta) ~ Z^T scatter(eta_e g_e)`` up to a constant that
cancels in the ratio.  The level matrices are rebuilt at the first
Picard pass of each cycle (the first call of that cycle's
:class:`_LawSolve`) and grouped by configuration (the law's type), never
by state — a deterministic schedule, so a preempt/resume
at a cycle boundary reproduces the uninterrupted run.  (The serial
driver's policy — a drift-lagged GMG hierarchy on the tenant's own
viscosity — is a different decision, not a twin of this one; see
ROADMAP's Settled entry "The serial and fleet preconditioner policies are two decisions" and
SOLVERS.md, "The fleet's hierarchies: one per viscosity law".)
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..fem.matfree import MatFreeStokesOperator, lumped_scalar_mass, scalar_gather
from ..fem.stokes import node_mass, velocity_bcs
from ..mesh.opcache import operator_cache
from ..rhea.convection import StepDiagnostics, advect, picard
from ..solvers.gmg import GeometricMultigrid
from ..solvers.minres import BatchedMinresResult, batched_minres

__all__ = ["BatchedMinresResult", "batched_minres", "BatchGroup"]


def _poisson_diag(mesh, eta_b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Assembly-free Jacobi surrogate of each job's Poisson block.

    The corner diagonals of a trilinear hex stiffness are all equal and
    scale with the element, so ``diag K(eta)`` is proportional to the
    node-wise scatter of ``eta_e g_e`` (``g`` any fixed per-element
    geometry weight), restricted through the hanging-node operator.  The
    proportionality constant cancels in the ``D_ref / D_j`` congruence
    ratio, which is all the preconditioner needs.  Returns ``(n, nb)``:
    one scatter through the cached element gather, whose row
    ``i ne + e`` is corner ``i`` of element ``e``.
    """
    w = (eta_b * g[None, :]).T  # (ne, nb)
    return scalar_gather(mesh).GT @ np.tile(w, (8, 1))


class _LawSolve:
    """The fleet's ``solve`` for :func:`~repro.rhea.convection.picard`:
    one batched MINRES per pass over the law-packed columns.  One object
    serves one cycle: its first call builds the per-law hierarchies, the
    rhs and the wide operator, later calls only rebind the viscosity — a
    state-independent schedule, so resume-after-preempt reproduces the
    uninterrupted preconditioner sequence."""

    def __init__(self, mesh, sims: list, bounds: np.ndarray):
        self.mesh, self.sims, self.bounds = mesh, sims, bounds
        self.bc_kind = sims[0].config.velocity_bc
        self.bc = velocity_bcs(mesh, self.bc_kind)
        self.tol = np.array([s.config.stokes_tol for s in sims])
        self.maxiter = np.array([s.config.stokes_maxiter for s in sims])
        self.op = None

    def _first_pass(self, eta_b: np.ndarray) -> None:
        # one hierarchy per law, on the geometric mean of its columns'
        # viscosity; each pass's congruence absorbs per-job deviations
        mesh, bounds, n = self.mesh, self.bounds, self.mesh.n_independent
        sizes = mesh.element_sizes()
        spans = zip(bounds, bounds[1:])
        eta_ref = np.exp(
            [np.log(eta_b[lo:hi]).mean(axis=0) for lo, hi in spans]
        )  # (n_laws, ne)
        with obs.phase("prec_setup"):
            self.gmgs = [GeometricMultigrid(mesh, e, self.bc_kind) for e in eta_ref]
        self.g_elem = np.prod(sizes, axis=1) ** (1.0 / 3.0)
        self.D_ref = np.repeat(
            _poisson_diag(mesh, eta_ref, self.g_elem), np.diff(bounds), axis=1
        )  # each column's law reference, (n, nb)
        M_node = node_mass(mesh)
        self.F = np.zeros((4 * n, len(self.sims)))
        for j, s in enumerate(self.sims):  # lint: allow-loop (per-job rhs pack, O(B))
            self.F[2 * n : 3 * n, j] = mesh.Z.T @ (M_node @ (s.config.Ra * s.T))
        self.F[self.bc.dofs] = 0.0
        self.op = MatFreeStokesOperator(mesh, eta_b, self.bc_kind, self.bc.dofs)

    def __call__(self, etas, guess, active):
        mesh, bounds, n = self.mesh, self.bounds, self.mesh.n_independent
        eta_b = np.stack(etas)
        if self.op is None:
            self._first_pass(eta_b)
        else:
            self.op.update_viscosity(eta_b)
        # per-column congruence K_j ~= T_j K_ref T_j around its law's
        # hierarchy: S = 1/T = sqrt(D_ref / D_j) applied on both sides
        # of the vcycle keeps the prec SPD while tracking each job's
        # local viscosity field, not just its overall scale
        S = np.sqrt(self.D_ref / _poisson_diag(mesh, eta_b, self.g_elem))
        schur = lumped_scalar_mass(mesh, 1.0 / eta_b)

        def make_prec(cols):
            # `cols` is sorted (compaction keeps survivors in order),
            # so each law's columns are one contiguous slice of the
            # working block; the stacked-block scalings of each slice
            # are built here, once per pass and per compaction
            cuts = np.searchsorted(cols, bounds)
            blocks = [
                (slice(a, b), gmg, np.tile(S[:, cols[a:b]], (3, 1)))
                for a, b, gmg in zip(cuts, cuts[1:], self.gmgs)
                if b > a
            ]
            schur_sub = schur[:, cols]

            def apply_M(R):
                Z = np.empty_like(R)
                for c, gmg, S3 in blocks:  # lint: allow-loop (one V-cycle per viscosity law)
                    Z[: 3 * n, c] = gmg.vcycle(R[: 3 * n, c] * S3) * S3
                Z[3 * n :] = R[3 * n :] / schur_sub
                return Z

            return apply_M

        def factory(cols):
            # compaction: rebuild the wide operator and the congruence
            # scalings on the surviving scenario columns only
            sub = MatFreeStokesOperator(mesh, eta_b[cols], self.bc_kind, self.bc.dofs)
            return sub.apply, make_prec(cols)

        F = self.F.copy()
        F[:, ~active] = 0.0  # an inactive column converges untouched at 0
        res = batched_minres(
            self.op.apply, F, M=make_prec(np.arange(len(etas))),
            X0=guess(self.bc.dofs), tol=self.tol, maxiter=self.maxiter,
            factory=factory,
        )
        return res.X, res.iterations, res.converged


class BatchGroup:
    """``B`` convection scenarios advancing in lockstep on one shared mesh.

    Every sim must hold the *same* :class:`~repro.mesh.Mesh` object (the
    fleet's :class:`~repro.fleet.service.MeshRegistry` interns structures
    to guarantee this), the same velocity BC and domain — everything
    else (Rayleigh number, internal heating, viscosity law, tolerances,
    Picard budget, step counts) may differ per tenant.
    The group's per-law hierarchies are its own decision, not the serial
    driver's lagged one.  Internally the Stokes columns are packed law
    by law (laws sorted by qualified class name, tenants in the caller's order
    within a law); every per-job result comes back in the caller's
    order.

    :meth:`cycle` mirrors one serial
    :meth:`~repro.rhea.convection.MantleConvection.run` cycle without
    adaptation — a batched Stokes solve followed by batched explicit
    advection — and appends a
    :class:`~repro.rhea.convection.StepDiagnostics` to each sim's
    history, so serial and batched runs are diagnostics-comparable.

    Example::

        group = BatchGroup([sim_a, sim_b, sim_c])
        diags = group.cycle()          # one lockstep cycle, 3 tenants
    """

    def __init__(self, sims: list):
        if not sims:
            raise ValueError("empty batch group")
        mesh = sims[0].mesh
        cfg0 = sims[0].config
        for s in sims:  # lint: allow-loop (per-job admission checks, O(B))
            if s.mesh is not mesh:
                raise ValueError(
                    "batched scenarios must share one interned Mesh object"
                )
            c = s.config
            if c.velocity_bc != cfg0.velocity_bc:
                raise ValueError("velocity_bc must be uniform across a batch group")
            if tuple(c.domain) != tuple(cfg0.domain):
                raise ValueError("domain must be uniform across a batch group")
        self.sims = list(sims)
        self.mesh = mesh
        self.nb = len(sims)
        # law-by-law packing: column p of the Stokes block is tenant
        # order[p], and the g-th law present (by qualified name) owns the
        # contiguous columns bounds[g]:bounds[g + 1]; the key is
        # configuration, not state
        laws = [
            "{0.__module__}.{0.__qualname__}".format(type(s.config.viscosity))
            for s in self.sims
        ]
        self._order = np.argsort(laws, kind="stable")
        self._bounds = np.cumsum([0, *np.unique(laws, return_counts=True)[1]])

    # -- Stokes ---------------------------------------------------------

    def solve_stokes(self) -> list[dict]:
        """Batched Picard iteration over the law-packed columns, every
        tenant with its own tolerances and budgets.  Returns one
        serial-shaped stats dict per job, in the caller's order."""
        sims = [self.sims[j] for j in self._order]  # packed law by law
        stats = picard(sims, _LawSolve(self.mesh, sims, self._bounds))
        return [stats[p] for p in np.argsort(self._order)]

    # -- temperature ----------------------------------------------------

    def advance_temperature(self) -> np.ndarray:
        """Every tenant's ``adapt_every`` explicit steps at its own CFL
        ``dt``, through :func:`~repro.rhea.convection.advect`; returns
        the per-job ``dt`` array."""
        return advect(self.sims, [s.config.adapt_every for s in self.sims])

    # -- one lockstep cycle ---------------------------------------------

    def cycle(self) -> list[StepDiagnostics]:
        """Batched (Stokes solve -> advect) for every tenant, inside the
        ``fleet/stokes`` and ``fleet/advection`` phases (reported as the
        Stokes and advection components, see
        :func:`repro.obs.classify_phase`); appends and returns one per-job
        :class:`StepDiagnostics`.  The group's wall time is billed by
        :meth:`repro.fleet.FleetService.step`, not here."""
        cstats = operator_cache(self.mesh)
        with obs.phase("fleet/stokes"):
            h0, m0 = cstats.hits, cstats.misses
            stats = self.solve_stokes()
            obs.counter("cache_hits", cstats.hits - h0)
            obs.counter("cache_misses", cstats.misses - m0)
        with obs.phase("fleet/advection"):
            self.advance_temperature()
        return [s.record_cycle(st) for s, st in zip(self.sims, stats)]
