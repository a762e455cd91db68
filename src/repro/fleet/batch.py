"""Lockstep batched execution of same-mesh scenarios.

The fleet's throughput lever: ``B`` scenarios that share one interned
mesh structure advance *together*, stacking their fields along the batch
axis of the element-minor matrix-free kernels
(:class:`repro.fem.matfree.MatFreeStokesOperator` and friends grow an
``nb`` channel in PR 8).  Every GEMM in the apply then amortizes its
gather/geometry traffic over all tenants — the per-scenario work
collapses from ``B`` skinny matvecs into one wide one.

Per-scenario physics stays exact: viscosity and Rayleigh number enter as
batched channel scalings, and :func:`batched_minres` carries the full
Paige-Saunders recurrence per column with an *active mask*, so a tenant
that converges (or whose Picard budget is spent) drops out by having its
rhs and iterate columns zeroed — MINRES sees a converged zero system and
leaves the column bitwise untouched while the rest keep iterating.
Under ``REPRO_SANITIZE=1`` that freeze is fingerprint-verified at
unpack.

The shared block preconditioner generalizes ``K(c eta) = c K(eta)``:
each job's Poisson block is approximated by the Jacobi congruence
``K_j ~= T_j K_ref T_j`` with ``T_j = diag(sqrt(diag K_j / diag K_ref))``
around one AMG hierarchy built on the element-wise geometric-mean
viscosity, so the per-column correction ``S_j = 1/T_j`` (applied on both
sides — a congruence, hence SPD and MINRES-valid) absorbs each tenant's
*local* viscosity deviations, not just its overall scale.  The diagonals
never need assembly: corner diagonals of a trilinear hex stiffness are
equal, so ``diag K(eta) ~ Z^T scatter(eta_e g_e)`` up to a constant that
cancels in the ratio.  The hierarchy is rebuilt at the first Picard pass
of each cycle — a deterministic schedule, so a preempt/resume at a cycle
boundary reproduces the uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..analysis.sanitize import maybe_freeze, maybe_verify
from ..fem.advection import element_velocity_from_nodal, supg_tau
from ..fem.assembly import assemble_scalar, lumped_mass
from ..fem.hexops import ElementOps
from ..fem.matfree import (
    MatFreeAdvectionOperator,
    MatFreeStokesOperator,
    batched_lumped_scalar_mass,
)
from ..fem.stokes import StokesSystem
from ..mesh.opcache import operator_cache
from ..rhea.convection import StepDiagnostics
from ..rhea.viscosity import element_temperature, strain_rate_invariant
from ..solvers.amg import SmoothedAggregationAMG

__all__ = ["BatchedMinresResult", "batched_minres", "BatchGroup"]

_OPS = ElementOps()


@dataclass
class BatchedMinresResult:
    """Per-column solutions and convergence of a batched MINRES run."""

    X: np.ndarray  # (n, nb) solution columns
    iterations: np.ndarray  # (nb,) iteration at which each column converged
    converged: np.ndarray  # (nb,) bool
    residuals: list = field(default_factory=list)  # (nb,) preconditioned norms


def batched_minres(
    A,
    B: np.ndarray,
    M=None,
    X0: np.ndarray | None = None,
    tol=1e-8,
    maxiter: int | None = None,
    factory=None,
) -> BatchedMinresResult:
    """Solve ``A X = B`` column-wise with one shared Krylov recurrence.

    The operator and preconditioner act on ``(n, nb)`` matrices whose
    columns are independent systems (the batched matfree apply); every
    Paige-Saunders scalar becomes a ``(nb,)`` array.  ``tol`` may be a
    scalar or a per-column array.  Columns converge independently: once
    ``|phibar_j| <= tol_j * ref_j`` the column's solution update is
    masked to zero, freezing it bitwise while the others iterate, and
    ``iterations[j]`` records the stopping iteration.  A zero column
    (zero rhs, zero guess) therefore converges at iteration 0 untouched
    — the masked-tenant mechanism of :class:`BatchGroup`.

    ``factory(cols) -> (apply_A, apply_M)``, when given, enables *column
    compaction*: once at least half the working columns have converged,
    the converged ones are dropped from the recurrence and the operators
    are rebuilt for the surviving global column indices ``cols``, so the
    width-proportional work (wide applies, preconditioner sweeps) tracks
    the shrinking active set.  All recurrence operations are columnwise,
    so compaction leaves the per-column arithmetic — iteration counts
    included — unchanged; the half-width hysteresis keeps rebuilds to
    ``O(log nb)`` per solve.

    As in :func:`repro.solvers.minres.minres`, warm-started columns
    measure convergence against ``||b||_M`` rather than the initial
    residual; cold columns use the initial residual (the two coincide).

    Example::

        res = batched_minres(op.apply, F, M=prec, tol=np.full(nb, 1e-6))
        res.X[:, res.converged]
    """
    apply_A = A if callable(A) else (lambda X: A @ X)
    apply_M = M if M is not None else (lambda R: R)
    B = np.asarray(B, dtype=np.float64)
    n, nb = B.shape
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (nb,))
    X = np.zeros((n, nb)) if X0 is None else np.array(X0, dtype=np.float64)
    maxiter = maxiter if maxiter is not None else 5 * n
    tiny = np.finfo(np.float64).tiny

    warm = np.any(X != 0.0, axis=0)
    # cold columns of X are zero, and the operator acts column-wise, so
    # their residual columns equal B exactly
    R1 = (B - apply_A(X)) if warm.any() else B.copy()
    Y = apply_M(R1)
    beta1 = np.einsum("ij,ij->j", R1, Y)
    if np.any(beta1 < 0):
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)
    residuals = [beta1.copy()]
    if warm.any():
        YB = apply_M(B)
        refw = np.einsum("ij,ij->j", B, YB)
        if np.any(refw < 0):
            raise ValueError("preconditioner is not positive definite")
        ref = np.where(warm, np.sqrt(refw), beta1)
    else:
        ref = beta1.copy()
    iterations = np.zeros(nb, dtype=np.int64)
    converged = beta1 <= tol * ref
    active = ~converged
    if not active.any():
        return BatchedMinresResult(
            X=X, iterations=iterations, converged=converged, residuals=residuals
        )

    oldb = np.zeros(nb)
    beta = beta1.copy()
    dbar = np.zeros(nb)
    epsln = np.zeros(nb)
    phibar = beta1.copy()
    cs = np.full(nb, -1.0)
    sn = np.zeros(nb)
    W = np.zeros((n, nb))
    W2 = np.zeros((n, nb))
    R2 = R1

    # compaction bookkeeping: `idx` maps working columns to global ones,
    # `X_out` is the full-width result (identical object to X until the
    # first compaction event), `res_full` freezes retired columns' final
    # preconditioned residuals in the history
    idx = np.arange(nb)
    X_out = X
    tol_w, ref_w = tol, ref
    res_full = beta1.copy()

    itn = 0
    for itn in range(1, maxiter + 1):  # lint: allow-loop (solver iteration)
        # inactive columns keep recurring on garbage (their beta may hit
        # zero); every division is clamped so they stay finite, and their
        # X columns are frozen by the `step` mask below
        s = 1.0 / np.maximum(beta, tiny)
        V = s[None, :] * Y
        Y = apply_A(V)
        if itn >= 2:
            Y = Y - (beta / np.maximum(oldb, tiny))[None, :] * R1
        alfa = np.einsum("ij,ij->j", V, Y)
        Y = Y - (alfa / np.maximum(beta, tiny))[None, :] * R2
        R1 = R2
        R2 = Y
        Y = apply_M(R2)
        oldb = beta
        beta2 = np.einsum("ij,ij->j", R2, Y)
        if np.any(beta2[active] < 0):
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(np.clip(beta2, 0.0, None))

        # apply previous and compute next Givens rotation, per column
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar * gbar + beta * beta)
        gamma = np.maximum(gamma, np.finfo(np.float64).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        W1 = W2
        W2 = W
        W = (V - oldeps[None, :] * W1 - delta[None, :] * W2) / gamma[None, :]
        step = np.where(active, phi, 0.0)
        X = X + step[None, :] * W

        res_full[idx] = np.abs(phibar)
        residuals.append(res_full.copy())
        newly = active & (np.abs(phibar) <= tol_w * ref_w)
        iterations[idx[newly]] = itn
        converged[idx[newly]] = True
        active &= ~newly
        if not active.any():
            break

        if factory is not None and 2 * int(active.sum()) <= idx.size:
            # retire converged columns: flush the working block into the
            # full-width result, slice every recurrence array down to the
            # survivors, and rebuild the operators on their global
            # indices.  Columnwise arithmetic is untouched, so iteration
            # counts match the uncompacted recurrence exactly.
            keep = active
            X_out[:, idx] = X
            idx = idx[keep]
            X = X[:, keep]
            R1, R2, Y = R1[:, keep], R2[:, keep], Y[:, keep]
            W, W2 = W[:, keep], W2[:, keep]
            oldb, beta, dbar = oldb[keep], beta[keep], dbar[keep]
            epsln, phibar = epsln[keep], phibar[keep]
            cs, sn = cs[keep], sn[keep]
            tol_w, ref_w = tol_w[keep], ref_w[keep]
            active = np.ones(idx.size, dtype=bool)
            apply_A, apply_M = factory(idx)

    iterations[idx[active]] = itn
    if X_out is not X:
        X_out[:, idx] = X
    return BatchedMinresResult(
        X=X_out, iterations=iterations, converged=converged.copy(),
        residuals=residuals,
    )


def _poisson_diag(mesh, eta_b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Assembly-free Jacobi surrogate of each job's Poisson block.

    The corner diagonals of a trilinear hex stiffness are all equal and
    scale with the element, so ``diag K(eta)`` is proportional to the
    node-wise scatter of ``eta_e g_e`` (``g`` any fixed per-element
    geometry weight), restricted through the hanging-node operator.  The
    proportionality constant cancels in the ``D_ref / D_j`` congruence
    ratio, which is all the preconditioner needs.  Returns ``(n, nb)``.
    """
    w = (eta_b * g[None, :]).T  # (ne, nb)
    acc = np.zeros((mesh.n_nodes, w.shape[1]))
    for c in range(8):  # lint: allow-loop (8 hex corners)
        np.add.at(acc, mesh.element_nodes[:, c], w)
    return mesh.Z.T @ acc


class BatchGroup:
    """``B`` convection scenarios advancing in lockstep on one shared mesh.

    Every sim must hold the *same* :class:`~repro.mesh.Mesh` object (the
    fleet's :class:`~repro.fleet.service.MeshRegistry` interns structures
    to guarantee this), the same velocity BC and domain, and zero
    internal heating — everything else (Rayleigh number, viscosity law,
    tolerances, Picard budget, step counts) may differ per tenant.

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

    def __init__(self, sims: list, amg_theta: float = 0.08):
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
        self.amg_theta = amg_theta

    # -- Stokes ---------------------------------------------------------

    def solve_stokes(self) -> list[dict]:
        """Batched Picard iteration: one wide MINRES per pass.

        Mirrors the serial ``_solve_stokes_impl`` per column — viscosity
        re-evaluation, warm start, pressure-mean projection, relative
        velocity-increment convergence test — with per-job ``picard_tol``
        / ``picard_iterations`` budgets enforced through the active mask.
        Returns one serial-shaped stats dict per job.
        """
        mesh, sims = self.mesh, self.sims
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
        maxiter = max(s.config.stokes_maxiter for s in sims)
        M_node = cache.get(
            "node_mass",
            lambda: assemble_scalar(mesh, _OPS.mass(sizes), constrain=False),
        )

        total_minres = np.zeros(nb, dtype=np.int64)
        n_picard = np.zeros(nb, dtype=np.int64)
        last_converged = np.ones(nb, dtype=bool)
        active = np.ones(nb, dtype=bool)
        eta_b = np.ones((nb, mesh.n_elements))
        op = amg = bc = F = None
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
                # AMG rebuilt at each cycle's first pass only: a fixed,
                # state-independent schedule, so resume-after-preempt
                # reproduces the uninterrupted preconditioner sequence.
                # The hierarchy lives on the geometric-mean viscosity of
                # the group; per-job deviations are absorbed by the
                # Jacobi congruence correction below.
                eta_ref = np.exp(np.mean(np.log(eta_b), axis=0))
                st_ref = StokesSystem(mesh, eta_ref, None, bc=bc_kind)
                bc = st_ref.bc
                with obs.phase("prec_setup"):
                    amg = [
                        SmoothedAggregationAMG(K, theta=self.amg_theta)
                        for K in st_ref.poisson_blocks()
                    ]
                g_elem = np.prod(sizes, axis=1) ** (1.0 / 3.0)
                D_ref = _poisson_diag(mesh, eta_ref[None, :], g_elem)[:, 0]
                F = np.zeros((4 * n, nb))
                for j, s in enumerate(sims):  # lint: allow-loop (per-job rhs pack, O(B))
                    F[2 * n : 3 * n, j] = mesh.Z.T @ (
                        M_node @ (s.config.Ra * s.T)
                    )
                F[bc.dofs] = 0.0
                op = MatFreeStokesOperator(mesh, eta_b, bc_kind, bc.dofs)
            else:
                op.update_viscosity(eta_b)
            # per-column congruence K_j ~= T_j K_ref T_j around the shared
            # hierarchy: S = 1/T = sqrt(D_ref / D_j) applied on both sides
            # of the vcycle keeps the prec SPD while tracking each job's
            # local viscosity field, not just its overall scale
            S = np.sqrt(D_ref[:, None] / _poisson_diag(mesh, eta_b, g_elem))
            schur = batched_lumped_scalar_mass(mesh, 1.0 / eta_b)

            def make_prec(Ssub, schur_sub, amg=amg):
                def apply_M(R):
                    Z = np.empty_like(R)
                    for a in range(3):  # lint: allow-loop (3 velocity components)
                        Z[a * n : (a + 1) * n] = (
                            amg[a].vcycle(R[a * n : (a + 1) * n] * Ssub) * Ssub
                        )
                    Z[3 * n :] = R[3 * n :] / schur_sub
                    return Z

                return apply_M

            apply_M = make_prec(S, schur)

            def factory(cols, eta_b=eta_b, S=S, schur=schur):
                # compaction: rebuild the wide operator and the congruence
                # scalings on the surviving scenario columns only
                sub = MatFreeStokesOperator(
                    mesh, eta_b[cols], bc_kind, bc.dofs
                )
                return sub.apply, make_prec(
                    np.ascontiguousarray(S[:, cols]),
                    np.ascontiguousarray(schur[:, cols]),
                )

            Fk = F.copy()
            Fk[:, ~active] = 0.0
            X0 = np.zeros((4 * n, nb))
            for j, s in enumerate(sims):  # lint: allow-loop (per-job warm-start pack, O(B))
                if not active[j]:
                    continue  # column stays zero -> converges untouched at 0
                if s.config.warm_start and np.any(s.u):
                    for a in range(3):  # lint: allow-loop (3 velocity components)
                        X0[a * n : (a + 1) * n, j] = s.u[mesh.indep_nodes, a]
                    X0[bc.dofs, j] = 0.0
                    if s._p_prev is not None and s._p_prev_mesh is mesh:
                        X0[3 * n :, j] = s._p_prev

            with obs.phase("minres"):
                res = batched_minres(
                    op.apply, Fk, M=apply_M, X0=X0, tol=stokes_tol,
                    maxiter=maxiter, factory=factory,
                )
            obs.counter("minres_calls")
            if zero_token is not None:
                for j in np.flatnonzero(~active):  # lint: allow-loop (sanitize verify, O(B))
                    maybe_verify(
                        res.X[:, j], zero_token,
                        context=f"fleet masked tenant column {j}",
                    )

            total_minres += np.where(active, res.iterations, 0)
            for j, s in enumerate(sims):  # lint: allow-loop (per-job unpack, O(B))
                if not active[j]:
                    continue
                x = res.X[:, j]
                p = x[3 * n :].copy()
                p -= p.mean()
                s._p_prev = p
                s._p_prev_mesh = mesh
                u_new = np.empty((mesh.n_nodes, 3))
                for a in range(3):  # lint: allow-loop (3 velocity components)
                    u_new[:, a] = mesh.expand(x[a * n : (a + 1) * n])
                du = np.linalg.norm(u_new - s.u) / max(
                    np.linalg.norm(u_new), 1e-30
                )
                s.u = u_new
                last_converged[j] = bool(res.converged[j])
                if du < picard_tol[j] or k + 1 >= picard_budget[j]:
                    active[j] = False
            if not active.any():
                break

        obs.counter("minres_iterations", int(total_minres.sum()))
        obs.counter("picard_iterations", int(n_picard.sum()))
        stats = []
        for j, s in enumerate(sims):  # lint: allow-loop (per-job stats, O(B))
            s._last_minres = int(total_minres[j])
            s._last_picard = int(n_picard[j])
            stats.append(
                {
                    "minres_iterations": int(total_minres[j]),
                    "picard_iterations": int(n_picard[j]),
                    "eta_min": float(s.eta_elem.min()),
                    "eta_max": float(s.eta_elem.max()),
                    "converged": bool(last_converged[j]),
                }
            )
        return stats

    # -- temperature ----------------------------------------------------

    def advance_temperature(self) -> np.ndarray:
        """Batched explicit Heun advection with per-job time steps.

        Each job takes its own ``adapt_every`` steps at its own CFL
        ``dt``; jobs whose step count is exhausted are frozen bitwise by
        a per-micro-step mask (and fingerprint-verified at unpack under
        ``REPRO_SANITIZE=1``).  Returns the per-job ``dt`` array.
        """
        mesh, sims = self.mesh, self.sims
        nb, n = self.nb, mesh.n_independent
        cache = operator_cache(mesh)
        sizes = mesh.element_sizes()
        vel_b = np.stack(
            [element_velocity_from_nodal(mesh, s.u) for s in sims]
        )  # (nb, ne, 3)
        kappa_b = np.array([s.config.kappa for s in sims])
        tau_b = np.stack(
            [supg_tau(sizes, vel_b[j], kappa_b[j]) for j in range(nb)]
        )
        op = MatFreeAdvectionOperator(mesh, kappa_b, vel_b, tau_b)
        mass_e = cache.get("elem_mass", lambda: _OPS.mass(sizes))
        ML = cache.get("lumped_mass", lambda: lumped_mass(mesh, mass_e))

        bc_mask = np.zeros(n, dtype=bool)
        bc_values = np.zeros(n)
        for axis, side, value in ((2, 0, 1.0), (2, 1, 0.0)):  # hot bottom, cold top

            def build(axis=axis, side=side):
                nodes = mesh.boundary_node_mask(axis=axis, side=side)
                dofs = mesh.dof_of_node[np.flatnonzero(nodes)]
                return dofs[dofs >= 0]

            dofs = cache.get(("bdofs", axis, side), build)
            bc_mask[dofs] = True
            bc_values[dofs] = value

        # per-job CFL bound (same advective/diffusive limits as serial)
        h = sizes.min(axis=1)
        speed = np.linalg.norm(vel_b, axis=2)  # (nb, ne)
        adv = np.where(speed > 0, h[None, :] / np.maximum(speed, 1e-300), np.inf)
        diff = np.where(
            kappa_b[:, None] > 0,
            h[None, :] ** 2 / np.maximum(6.0 * kappa_b[:, None], 1e-300),
            np.inf,
        )
        cfl_b = np.array([s.config.cfl for s in sims])
        dt_b = cfl_b * np.minimum(adv, diff).min(axis=1)
        if not np.all(np.isfinite(dt_b)):
            raise ValueError("no finite CFL bound (zero velocity and diffusivity)")
        n_steps = np.array([s.config.adapt_every for s in sims])

        Tm = np.stack([s.T[mesh.indep_nodes] for s in sims], axis=1)  # (n, nb)
        dtrow = dt_b[None, :]
        frozen: list = [None] * nb

        def rate(T):
            R = -op.apply(T) / ML[:, None]
            R[bc_mask] = 0.0
            return R

        def apply_bcs(T):
            out = T.copy()
            out[bc_mask] = bc_values[bc_mask][:, None]
            return out

        for t in range(int(n_steps.max())):  # lint: allow-loop (time stepping)
            stepmask = t < n_steps
            T0 = apply_bcs(Tm)
            k1 = rate(T0)
            Tstar = apply_bcs(T0 + dtrow * k1)
            k2 = rate(Tstar)
            T1 = apply_bcs(T0 + 0.5 * dtrow * (k1 + k2))
            Tm = np.where(stepmask[None, :], T1, Tm)
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

        out = []
        for s, st in zip(self.sims, stats):  # lint: allow-loop (per-job diagnostics, O(B))
            d = StepDiagnostics(
                step=s.step_count,
                time=s.sim_time,
                n_elements=self.mesh.n_elements,
                vrms=s.vrms(),
                nusselt=s.nusselt(),
                mean_T=s.mean_temperature(),
                minres_iterations=st["minres_iterations"],
                picard_iterations=st["picard_iterations"],
                eta_min=st["eta_min"],
                eta_max=st["eta_max"],
                timings={
                    "Stokes": t_stokes / self.nb,
                    "TimeIntegration": t_adv / self.nb,
                },
            )
            s.history.append(d)
            out.append(d)
        return out
