"""Lockstep batched execution of same-mesh scenarios.

The fleet's throughput lever: ``B`` scenarios that share one interned
mesh structure advance *together*, stacking their fields along the batch
axis of the element-minor matrix-free kernels
(:class:`repro.fem.matfree.MatFreeStokesOperator` and friends grow an
``nb`` channel in PR 8).  Every GEMM in the apply then amortizes its
gather/geometry traffic over all tenants — the per-scenario work
collapses from ``B`` skinny matvecs into one wide one.

No algorithm is defined here: the Krylov recurrence is
:func:`repro.solvers.minres.batched_minres` (serial ``minres`` is its
one-column case), the explicit SUPG step is
:class:`repro.fem.advection.AdvectionDiffusion` on ``(n, nb)`` fields,
and a solution enters a tenant's state through the
:class:`~repro.rhea.convection.MantleConvection` methods the serial
Picard loop calls.  :class:`BatchGroup` owns the fleet's part: column
packing, per-tenant budgets (Picard passes, MINRES cap, step counts)
enforced through masks, and the shared preconditioner.

Per-scenario physics stays exact: viscosity and Rayleigh number enter as
batched channel scalings, and the recurrence carries an *active mask*
per column, so a tenant that converges (or whose Picard budget is
spent) drops out by having its rhs and iterate columns zeroed — MINRES
sees a converged zero system and leaves the column bitwise untouched
while the rest keep iterating.  Under ``REPRO_SANITIZE=1`` that freeze
is fingerprint-verified at unpack.

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
Picard pass of each cycle and grouped by configuration (the law's
type), never by state — a deterministic schedule, so a preempt/resume
at a cycle boundary reproduces the uninterrupted run.  (The serial
driver's policy — a drift-lagged GMG hierarchy on the tenant's own
viscosity — is a different decision, not a twin of this one; see
ROADMAP's Settled entry "The serial and fleet preconditioner policies are two decisions" and
SOLVERS.md, "The fleet's hierarchies: one per viscosity law".)
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..analysis.sanitize import maybe_freeze, maybe_verify
from ..fem.advection import AdvectionDiffusion, element_velocity_from_nodal
from ..fem.assembly import assemble_scalar
from ..fem.hexops import ElementOps
from ..fem.matfree import (
    MatFreeStokesOperator,
    batched_lumped_scalar_mass,
    scalar_gather,
)
from ..fem.stokes import velocity_bcs
from ..mesh.opcache import operator_cache
from ..rhea.convection import THERMAL_BCS, StepDiagnostics
from ..rhea.viscosity import element_temperature, strain_rate_invariant
from ..solvers.gmg import GeometricMultigrid
from ..solvers.minres import BatchedMinresResult, batched_minres

__all__ = ["BatchedMinresResult", "batched_minres", "BatchGroup"]

_OPS = ElementOps()


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


class BatchGroup:
    """``B`` convection scenarios advancing in lockstep on one shared mesh.

    Every sim must hold the *same* :class:`~repro.mesh.Mesh` object (the
    fleet's :class:`~repro.fleet.service.MeshRegistry` interns structures
    to guarantee this), the same velocity BC and domain, and zero
    internal heating — everything else (Rayleigh number, viscosity law,
    tolerances, Picard budget, step counts) may differ per tenant.
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
            if c.gamma != 0.0:
                raise ValueError("batched advection supports gamma = 0 only")
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
        """Batched Picard iteration: one wide MINRES per pass.

        The serial :meth:`MantleConvection.solve_stokes` per column —
        viscosity re-evaluation, warm start, solution hand-off, relative
        velocity-increment convergence test — with per-job ``picard_tol``
        / ``picard_iterations`` / ``stokes_tol`` / ``stokes_maxiter``
        budgets enforced through the active mask.  Returns one
        serial-shaped stats dict per job, in the caller's order.
        """
        mesh, order, bounds = self.mesh, self._order, self._bounds
        sims = [self.sims[j] for j in order]  # packed law by law
        nb, n = self.nb, mesh.n_independent
        cache = operator_cache(mesh)
        sizes = mesh.element_sizes()
        cfg0 = sims[0].config
        bc_kind = cfg0.velocity_bc
        z_e = mesh.element_centers()[:, 2] / cfg0.domain[2]
        T_e = [element_temperature(mesh, s.T) for s in sims]
        picard_budget = np.array(
            [max(s.config.picard_iterations, 1) for s in sims]
        )
        picard_tol = np.array([s.config.picard_tol for s in sims])
        stokes_tol = np.array([s.config.stokes_tol for s in sims])
        stokes_maxiter = np.array([s.config.stokes_maxiter for s in sims])
        M_node = cache.get(
            "node_mass",
            lambda: assemble_scalar(mesh, _OPS.mass(sizes), constrain=False),
        )

        total_minres = np.zeros(nb, dtype=np.int64)
        n_picard = np.zeros(nb, dtype=np.int64)
        last_converged = np.ones(nb, dtype=bool)
        active = np.ones(nb, dtype=bool)
        eta_b = np.ones((nb, mesh.n_elements))
        op = gmgs = F = None
        bc = velocity_bcs(mesh, bc_kind)
        zero_token = maybe_freeze(np.zeros(4 * n))
        for k in range(int(picard_budget.max())):  # lint: allow-loop (Picard)
            for j, s in enumerate(sims):  # lint: allow-loop (per-job viscosity, O(B))
                if not active[j]:
                    continue
                edot = strain_rate_invariant(mesh, s.u)
                eta = s.config.viscosity(T_e[j], z_e, edot)
                s.eta_elem = eta
                s.edot_elem = edot
                eta_b[j] = eta
            n_picard[active] = k + 1
            if k == 0:
                # GMG level matrices rebuilt at each cycle's first pass
                # only: a fixed, state-independent schedule, so
                # resume-after-preempt reproduces the uninterrupted
                # preconditioner sequence.  One hierarchy per viscosity
                # law, on the geometric-mean viscosity of that law's
                # columns; per-job deviations are absorbed by the Jacobi
                # congruence correction below.
                spans = zip(bounds, bounds[1:])
                eta_ref = np.exp(
                    [np.log(eta_b[lo:hi]).mean(axis=0) for lo, hi in spans]
                )  # (n_laws, ne)
                with obs.phase("prec_setup"):
                    gmgs = [GeometricMultigrid(mesh, e, bc_kind) for e in eta_ref]
                g_elem = np.prod(sizes, axis=1) ** (1.0 / 3.0)
                D_ref = np.repeat(
                    _poisson_diag(mesh, eta_ref, g_elem), np.diff(bounds), axis=1
                )  # each column's law reference, (n, nb)
                F = np.zeros((4 * n, nb))
                for j, s in enumerate(sims):  # lint: allow-loop (per-job rhs pack, O(B))
                    F[2 * n : 3 * n, j] = mesh.Z.T @ (
                        M_node @ (s.config.Ra * s.T)
                    )
                F[bc.dofs] = 0.0
                op = MatFreeStokesOperator(mesh, eta_b, bc_kind, bc.dofs)
            else:
                op.update_viscosity(eta_b)
            # per-column congruence K_j ~= T_j K_ref T_j around its law's
            # hierarchy: S = 1/T = sqrt(D_ref / D_j) applied on both sides
            # of the vcycle keeps the prec SPD while tracking each job's
            # local viscosity field, not just its overall scale
            S = np.sqrt(D_ref / _poisson_diag(mesh, eta_b, g_elem))
            schur = batched_lumped_scalar_mass(mesh, 1.0 / eta_b)

            def make_prec(cols, S=S, schur=schur, gmgs=gmgs):
                # `cols` is sorted (compaction keeps survivors in order),
                # so each law's columns are one contiguous slice of the
                # working block; the stacked-block scalings of each slice
                # are built here, once per pass and per compaction
                cuts = np.searchsorted(cols, bounds)
                blocks = [
                    (slice(a, b), gmg, np.tile(S[:, cols[a:b]], (3, 1)))
                    for a, b, gmg in zip(cuts, cuts[1:], gmgs)
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

            apply_M = make_prec(np.arange(nb))

            def factory(cols, eta_b=eta_b, make_prec=make_prec):
                # compaction: rebuild the wide operator and the congruence
                # scalings on the surviving scenario columns only
                sub = MatFreeStokesOperator(
                    mesh, eta_b[cols], bc_kind, bc.dofs
                )
                return sub.apply, make_prec(cols)

            Fk = F.copy()
            Fk[:, ~active] = 0.0
            X0 = np.zeros((4 * n, nb))
            for j in np.flatnonzero(active):  # lint: allow-loop (per-job warm-start pack, O(B))
                # an inactive column stays zero -> converges untouched at 0
                X0[:, j] = sims[j].stokes_guess(bc.dofs)

            res = batched_minres(
                op.apply, Fk, M=apply_M, X0=X0, tol=stokes_tol,
                maxiter=stokes_maxiter, factory=factory,
            )
            if zero_token is not None:
                for j in np.flatnonzero(~active):  # lint: allow-loop (sanitize verify, O(B))
                    maybe_verify(
                        res.X[:, j], zero_token,
                        context=f"fleet masked tenant {order[j]} (column {j})",
                    )

            total_minres += np.where(active, res.iterations, 0)
            for j in np.flatnonzero(active):  # lint: allow-loop (per-job unpack, O(B))
                du = sims[j].accept_stokes(res.X[:, j])
                last_converged[j] = bool(res.converged[j])
                if du < picard_tol[j] or k + 1 >= picard_budget[j]:
                    active[j] = False
            if not active.any():
                break

        obs.counter("picard_iterations", int(n_picard.sum()))
        packed = np.argsort(order)  # caller's index -> packed column
        return [
            s.stokes_stats(total_minres[p], n_picard[p], last_converged[p])
            for s, p in zip(self.sims, packed)
        ]

    # -- temperature ----------------------------------------------------

    def advance_temperature(self) -> np.ndarray:
        """Batched explicit Heun advection with per-job time steps.

        One :class:`~repro.fem.advection.AdvectionDiffusion` over the
        batch axis does the stepping.  Each job takes its own
        ``adapt_every`` steps at its own CFL ``dt``; jobs whose step
        count is exhausted are frozen bitwise by a per-micro-step mask
        (and fingerprint-verified at unpack under ``REPRO_SANITIZE=1``).
        Returns the per-job ``dt`` array.
        """
        mesh, sims = self.mesh, self.sims
        eq = AdvectionDiffusion(
            mesh,
            np.array([s.config.kappa for s in sims]),
            np.stack([element_velocity_from_nodal(mesh, s.u) for s in sims]),
            dirichlet=THERMAL_BCS,
        )
        dt_b = eq.cfl_dt(np.array([s.config.cfl for s in sims]))
        n_steps = np.array([s.config.adapt_every for s in sims])

        Tm = np.stack([s.T[mesh.indep_nodes] for s in sims], axis=1)  # (n, nb)
        frozen: list = [None] * self.nb
        for t in range(int(n_steps.max())):  # lint: allow-loop (time stepping)
            Tm = np.where(t < n_steps, eq.step(Tm, dt_b), Tm)
            for j in np.flatnonzero(t + 1 == n_steps):  # lint: allow-loop (sanitize freeze, O(B))
                frozen[j] = maybe_freeze(Tm[:, j].copy())
        for j, tok in enumerate(frozen):  # lint: allow-loop (sanitize verify, O(B))
            if tok is not None and n_steps[j] < n_steps.max():
                maybe_verify(
                    Tm[:, j], tok,
                    context=f"fleet finished tenant temperature column {j}",
                )

        for j, s in enumerate(sims):  # lint: allow-loop (per-job unpack, O(B))
            s.T = mesh.expand(Tm[:, j])
            s.sim_time += int(n_steps[j]) * float(dt_b[j])
            s.step_count += int(n_steps[j])
        return dt_b

    # -- one lockstep cycle ---------------------------------------------

    def cycle(self) -> list[StepDiagnostics]:
        """Batched (Stokes solve -> advect) for every tenant; appends and
        returns one per-job :class:`StepDiagnostics` (batch wall time is
        split evenly across tenants in the ``timings`` dict — the
        accountant refines attribution by per-job work counters)."""
        cstats = operator_cache(self.mesh)
        t0 = time.perf_counter()
        with obs.phase("fleet/stokes"):
            h0, m0 = cstats.hits, cstats.misses
            stats = self.solve_stokes()
            obs.counter("cache_hits", cstats.hits - h0)
            obs.counter("cache_misses", cstats.misses - m0)
        t_stokes = time.perf_counter() - t0
        t0 = time.perf_counter()
        with obs.phase("fleet/advection"):
            self.advance_temperature()
            obs.counter(
                "advection_steps",
                int(sum(s.config.adapt_every for s in self.sims)),
            )
        t_adv = time.perf_counter() - t0

        timings = {
            "Stokes": t_stokes / self.nb,
            "TimeIntegration": t_adv / self.nb,
        }
        return [
            s.record_cycle(st, dict(timings)) for s, st in zip(self.sims, stats)
        ]
