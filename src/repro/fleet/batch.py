"""Lockstep batched execution of same-mesh scenarios.

The fleet's throughput lever: ``B`` scenarios that share one interned
mesh structure advance *together*, stacking their fields along the batch
axis of the element-minor matrix-free kernels (the saddle apply and the
SUPG rate both take an ``nb`` channel).  Every GEMM in the apply then
amortizes its gather/geometry traffic over all tenants — the
per-scenario work collapses from ``B`` skinny matvecs into one wide one.

No algorithm or discretisation is defined here: the Picard iteration is
:func:`repro.rhea.convection.picard`, the temperature advance is
:func:`repro.rhea.convection.advect`, the Stokes problem of a pass —
saddle operator, buoyancy load (:func:`repro.rhea.convection.buoyancy`),
boundary conditions and Schur diagonal — is one batched
:class:`repro.fem.StokesSystem` (the serial driver is the one-column
case of all three), and the Krylov recurrence is
:func:`repro.solvers.minres.batched_minres` (serial ``minres`` is its
one-column case).  :class:`BatchGroup` owns the fleet's policy: column
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
from ..fem import StokesSystem
from ..fem.matfree import scalar_gather
from ..mesh.opcache import operator_cache
from ..rhea.convection import StepDiagnostics, advect, buoyancy, picard
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
    one batched MINRES per pass over the law-packed columns of one
    batched :class:`~repro.fem.StokesSystem`.  One object serves one
    cycle: its first call builds the system on
    :func:`~repro.rhea.convection.buoyancy` and the per-law hierarchies,
    later calls only rebind the viscosity — a state-independent
    schedule, so resume-after-preempt reproduces the uninterrupted
    preconditioner sequence."""

    def __init__(self, mesh, sims: list, bounds: np.ndarray):
        self.mesh, self.sims, self.bounds = mesh, sims, bounds
        self.bc_kind = sims[0].config.velocity_bc
        self.tol = np.array([s.config.stokes_tol for s in sims])
        self.maxiter = np.array([s.config.stokes_maxiter for s in sims])
        self.stokes = None

    def _first_pass(self, eta_b: np.ndarray) -> None:
        # one hierarchy per law, on the geometric mean of its columns'
        # viscosity; each pass's congruence absorbs per-job deviations
        mesh, bounds = self.mesh, self.bounds
        spans = zip(bounds, bounds[1:])
        eta_ref = np.exp(
            [np.log(eta_b[lo:hi]).mean(axis=0) for lo, hi in spans]
        )  # (n_laws, ne)
        with obs.phase("prec_setup"):
            self.gmgs = [GeometricMultigrid(mesh, e, self.bc_kind) for e in eta_ref]
        self.g_elem = np.prod(mesh.element_sizes(), axis=1) ** (1.0 / 3.0)
        self.D_ref = np.repeat(
            _poisson_diag(mesh, eta_ref, self.g_elem), np.diff(bounds), axis=1
        )  # each column's law reference, (n, nb)

    def __call__(self, etas, guess, active):
        mesh, bounds, n = self.mesh, self.bounds, self.mesh.n_independent
        eta_b = np.stack(etas)
        if self.stokes is None:
            self.stokes = StokesSystem(mesh, eta_b, buoyancy(self.sims), bc=self.bc_kind)
            self._first_pass(eta_b)
        else:
            self.stokes.update_viscosity(eta_b)
        st = self.stokes
        # per-column congruence K_j ~= T_j K_ref T_j around its law's
        # hierarchy: S = 1/T = sqrt(D_ref / D_j) applied on both sides
        # of the vcycle keeps the prec SPD while tracking each job's
        # local viscosity field, not just its overall scale
        S = np.sqrt(self.D_ref / _poisson_diag(mesh, eta_b, self.g_elem))
        schur = st.schur_diagonal()

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
            sub = StokesSystem(mesh, eta_b[cols], bc=self.bc_kind)
            return sub.matvec, make_prec(cols)

        F = st.rhs()
        F[:, ~active] = 0.0  # an inactive column converges untouched at 0
        res = batched_minres(
            st.matvec, F, M=make_prec(np.arange(len(etas))),
            X0=guess(st.bc.dofs), tol=self.tol, maxiter=self.maxiter,
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
