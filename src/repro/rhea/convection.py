"""RHEA: the coupled adaptive mantle convection simulation.

Implements the solution strategy of Section III on top of the ALPS mesh
layer: one cycle is a variable-viscosity Stokes solve for the flow, with
the strain-rate-dependent (yielding) viscosity handled by Picard
fixed-point iteration (:func:`picard`), then ``adapt_every`` explicit
SUPG advection-diffusion steps of temperature with that velocity frozen
(:func:`advect`).  Both run on a block of same-mesh columns: the serial
driver is one column, the fleet's lockstep group packs many.  The mesh
is re-adapted once per cycle through the Figure-4 pipeline, transferring
temperature, velocity and the pressure warm start.

Nondimensionalization follows eqs. (1)-(3): buoyancy ``Ra T e_z`` drives
the flow, kappa = 1, and the Rayleigh number controls vigor.  That body
force is built in one place, :func:`buoyancy`, for one column or many;
every Stokes solve, serial or batched, is a
:class:`~repro.fem.StokesSystem` on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..amr import adapt_mesh
from ..checkpoint import Checkpointer
from ..fem import AdvectionDiffusion, StokesSystem, element_velocity_from_nodal
from ..forest import FOREST_MAX_LEVEL
from ..mesh import Mesh, extract_mesh
from ..mesh.opcache import operator_cache
from ..octree import LinearOctree
from ..parallel.sanitize import maybe_freeze, maybe_verify
from ..solvers import LaggedStokesPreconditioner, minres
from .error import combined_indicator
from .viscosity import ArrheniusViscosity, element_temperature, strain_rate_invariant

__all__ = [
    "ConfigError", "RheaConfig", "MantleConvection", "advect", "buoyancy",
    "conductive_profile", "picard",
]

#: temperature Dirichlet faces ``(axis, side, value)``: hot bottom, cold top
THERMAL_BCS = [(2, 0, 1.0), (2, 1, 0.0)]


class ConfigError(ValueError):
    """Structured :class:`RheaConfig` validation failure.

    ``errors`` is a list of ``(field, message)`` pairs — every violated
    constraint, not just the first — so admission layers (the fleet
    service) can report all problems with a spec at once.
    """

    def __init__(self, errors: list):
        self.errors = list(errors)
        detail = "; ".join(f"{f}: {m}" for f, m in self.errors)
        super().__init__(f"invalid RheaConfig: {detail}")


def _finite(value) -> bool:
    try:
        return bool(np.isfinite(float(value)))
    except (TypeError, ValueError):
        return False


def conductive_profile(coords: np.ndarray, perturbation: float = 0.05, domain=None) -> np.ndarray:
    """Initial temperature: conductive (1 - z') plus a smooth perturbation
    that seeds convection; ``z'`` is depth-normalized."""
    d = np.asarray(domain if domain is not None else (1.0, 1.0, 1.0), dtype=np.float64)
    x, y, z = (coords[:, i] / d[i] for i in range(3))
    base = 1.0 - z
    pert = perturbation * np.cos(np.pi * x) * np.cos(np.pi * y) * np.sin(np.pi * z)
    return np.clip(base + pert, 0.0, 1.0)


@dataclass
class RheaConfig:
    """Physical and numerical parameters of a RHEA run."""

    Ra: float = 1e5
    domain: tuple = (1.0, 1.0, 1.0)
    kappa: float = 1.0
    gamma: float = 0.0
    viscosity: Callable = field(default_factory=ArrheniusViscosity)
    initial_level: int = 3
    min_level: int = 1
    max_level: int = 6
    target_elements: int | None = None
    adapt_every: int = 16
    cfl: float = 0.4
    picard_iterations: int = 3
    picard_tol: float = 1e-2
    stokes_tol: float = 1e-6
    stokes_maxiter: int = 500
    viscosity_weight: float = 0.5
    #: weight of the strain-rate-localization term in the refinement
    #: criterion (refines yielding zones / plate boundaries, Sec. VI)
    strain_weight: float = 0.3
    #: refinement boost for elements where the plastic yield limiter is
    #: active — drives the ~1.5 km resolution in the weak zones of Fig. 11
    yield_weight: float = 0.75
    velocity_bc: str = "free_slip"
    mark_tol: float = 0.08
    #: lagged multigrid setup: reuse the preconditioner hierarchy until
    #: the element viscosity drifts past this relative threshold;
    #: ``0.0`` reuses only for bitwise-unchanged viscosity, which is
    #: rebuild-every-pass bitwise
    prec_lag_rtol: float = 0.3
    #: viscous-block preconditioner: ``"gmg"`` (geometric multigrid on the
    #: octree coarsening hierarchy; see SOLVERS.md) is the only value.  The
    #: field survives only because the benchmark's ``convect_gmg`` workload
    #: passes it (``bench/workloads.py``); the next benchmark change drops it
    stokes_preconditioner: str = "gmg"

    def __post_init__(self):
        """Validate eagerly so a bad configuration fails at construction
        with a :class:`ConfigError` naming every violated field — not
        deep inside a run (fleet admission rejects specs through this)."""
        errors: list[tuple[str, str]] = []

        def choice(field: str, allowed: tuple):
            v = getattr(self, field)
            if v not in allowed:
                opts = " or ".join(repr(a) for a in allowed)
                errors.append((field, f"must be {opts}, got {v!r}"))

        def positive(field: str, strict: bool = True):
            v = getattr(self, field)
            if not _finite(v):
                errors.append((field, f"must be a finite number, got {v!r}"))
            elif (float(v) <= 0) if strict else (float(v) < 0):
                errors.append((field, f"must be {'>' if strict else '>='} 0, got {v!r}"))

        choice("stokes_preconditioner", ("gmg",))
        choice("velocity_bc", ("free_slip", "no_slip"))
        positive("Ra", strict=False)
        positive("cfl")
        positive("kappa", strict=False)
        positive("picard_tol")
        positive("stokes_tol")
        positive("prec_lag_rtol", strict=False)
        for budget in ("picard_iterations", "stokes_maxiter", "adapt_every"):
            v = getattr(self, budget)
            if not isinstance(v, (int, np.integer)) or v < 1:
                errors.append((budget, f"must be an integer >= 1, got {v!r}"))
        if not callable(self.viscosity):
            errors.append(("viscosity", "must be callable (a viscosity law)"))
        levels = (self.min_level, self.initial_level, self.max_level)
        if all(isinstance(v, (int, np.integer)) for v in levels):
            if not 0 <= self.min_level <= self.initial_level <= self.max_level:
                errors.append((
                    "min_level",
                    "need 0 <= min_level <= initial_level <= max_level, "
                    f"got ({self.min_level}, {self.initial_level}, "
                    f"{self.max_level})",
                ))
            if self.max_level > FOREST_MAX_LEVEL:
                errors.append((
                    "max_level",
                    f"must be <= {FOREST_MAX_LEVEL} (the deepest level 2:1 "
                    f"balance encodes), got {self.max_level}",
                ))
        else:
            errors.append(("initial_level", f"levels must be integers, got {levels!r}"))
        try:
            if len(self.domain) != 3 or not all(_finite(d) and float(d) > 0 for d in self.domain):
                errors.append(("domain", f"must be 3 positive extents, got {self.domain!r}"))
        except TypeError:
            errors.append(("domain", f"must be 3 positive extents, got {self.domain!r}"))
        if errors:
            raise ConfigError(errors)


@dataclass
class StepDiagnostics:
    step: int
    time: float
    n_elements: int
    vrms: float
    nusselt: float
    mean_T: float
    minres_iterations: int
    picard_iterations: int
    eta_min: float
    eta_max: float


def buoyancy(sims: list) -> np.ndarray:
    """The body force ``Ra T e_z`` of each same-mesh
    :class:`MantleConvection` in ``sims``, as the ``(n_nodes, 3, nb)``
    column block a batched :class:`~repro.fem.StokesSystem` takes (the
    serial driver passes column 0).  The only place the Rayleigh number
    meets the temperature."""
    f = np.zeros((sims[0].mesh.n_nodes, 3, len(sims)))
    for j, s in enumerate(sims):
        f[:, 2, j] = s.config.Ra * s.T
    return f


def picard(sims: list, solve: Callable) -> list[dict]:
    """Picard fixed-point iteration over the strain-rate-dependent
    viscosity, one column per same-mesh :class:`MantleConvection` in
    ``sims``: the serial driver is one column, the fleet's
    :class:`~repro.fleet.batch.BatchGroup` packs many.  A column drops
    out once its relative velocity increment is below its ``picard_tol``
    or its ``picard_iterations`` budget is spent.

    ``solve(etas, guess, active) -> (X, iterations, converged)`` is one
    pass's linear solve and holds the preconditioner policy: ``etas`` are
    the arrays the viscosity laws returned, ``guess(bc_dofs)`` packs the
    ``(4n, nb)`` warm start and ``active`` masks the columns.  Inactive
    columns go in and must come back zero (verified under
    ``REPRO_SANITIZE=1``).  Returns one statistics dict per column.
    """
    mesh = sims[0].mesh
    nb, n = len(sims), mesh.n_independent
    z_e = mesh.element_centers()[:, 2] / sims[0].config.domain[2]
    T_e = [element_temperature(mesh, s.T) for s in sims]
    budget = np.array([s.config.picard_iterations for s in sims])
    total_minres = np.zeros(nb, dtype=np.int64)
    n_picard = np.zeros(nb, dtype=np.int64)
    converged = np.ones(nb, dtype=bool)
    active = np.ones(nb, dtype=bool)
    zero_token = maybe_freeze(np.zeros(4 * n))

    def guess(bc_dofs):
        X0 = np.zeros((4 * n, nb))
        for j in np.flatnonzero(active):
            X0[:, j] = sims[j].stokes_guess(bc_dofs)
        return X0

    for k in range(budget.max()):  # lint: allow-loop (Picard)
        for j in np.flatnonzero(active):
            s = sims[j]
            s.edot_elem = strain_rate_invariant(mesh, s.u)
            s.eta_elem = s.config.viscosity(T_e[j], z_e, s.edot_elem)
        n_picard[active] = k + 1
        X, iterations, conv = solve([s.eta_elem for s in sims], guess, active)
        for j in np.flatnonzero(~active):
            maybe_verify(X[:, j], zero_token, context=f"masked Picard column {j}")
        total_minres += np.where(active, iterations, 0)
        for j in np.flatnonzero(active):
            du = sims[j].accept_stokes(X[:, j])
            converged[j] = conv[j]
            if du < sims[j].config.picard_tol or k + 1 == budget[j]:
                active[j] = False
        if not active.any():
            break
    obs.counter("picard_iterations", int(n_picard.sum()))
    return [
        {
            "minres_iterations": int(total_minres[j]),
            "picard_iterations": int(n_picard[j]),
            "eta_min": float(s.eta_elem.min()),
            "eta_max": float(s.eta_elem.max()),
            "converged": bool(converged[j]),
        }
        for j, s in enumerate(sims)
    ]


def advect(sims: list, n_steps) -> np.ndarray:
    """Explicit SUPG transport of temperature with the frozen Stokes
    velocity, one column per same-mesh :class:`MantleConvection` in
    ``sims`` (the serial driver is one column, the fleet's
    :class:`~repro.fleet.batch.BatchGroup` packs many): column ``j``
    takes ``n_steps[j]`` steps at its own CFL ``dt`` with its own
    diffusivity, velocity and internal heating.  Unequal counts advance
    in integer segments between the distinct stops; a finished column
    keeps the bits it held at its stop (verified under
    ``REPRO_SANITIZE=1``).  Updates each sim's ``T``, ``sim_time`` and
    ``step_count``, counts the steps (``advection_steps``) and returns
    the per-column ``dt``."""
    mesh = sims[0].mesh
    cfgs = [s.config for s in sims]
    eq = AdvectionDiffusion(
        mesh,
        np.array([c.kappa for c in cfgs]),
        np.stack([element_velocity_from_nodal(mesh, s.u) for s in sims]),
        source=np.array([c.gamma for c in cfgs]),
        dirichlet=THERMAL_BCS,
    )
    dt = eq.cfl_dt(np.array([c.cfl for c in cfgs]))
    n_steps = np.asarray(n_steps)
    T = np.stack([s.T[mesh.indep_nodes] for s in sims], axis=1)  # (n, nb)
    done, frozen = 0, {}
    for stop in np.unique(n_steps):  # lint: allow-loop (one segment per distinct stop)
        T = np.where(n_steps >= stop, eq.advance(T, dt, int(stop - done)), T)
        done = stop
        for j in np.flatnonzero(n_steps == stop):
            frozen[j] = maybe_freeze(T[:, j])
    for j, token in frozen.items():
        maybe_verify(T[:, j], token, context=f"finished temperature column {j}")
    for j, s in enumerate(sims):
        s.T = mesh.expand(T[:, j])
        s.sim_time += int(n_steps[j]) * float(dt[j])
        s.step_count += int(n_steps[j])
    obs.counter("advection_steps", int(n_steps.sum()))
    return dt


class MantleConvection:
    """Driver object holding the evolving mesh, fields, and solvers."""

    def __init__(
        self,
        config: RheaConfig | None = None,
        T_init: Callable[[np.ndarray], np.ndarray] | None = None,
        tree: LinearOctree | None = None,
        mesh: Mesh | None = None,
    ):
        self.config = config or RheaConfig()
        cfg = self.config
        if mesh is not None:
            # a pre-built (possibly registry-interned, cross-tenant
            # shared) mesh: extraction is deterministic, so an identical
            # structure implies identical node numbering and the shared
            # operator cache applies verbatim
            if mesh.tree is None:
                raise ValueError(
                    "MantleConvection needs mesh.tree (the extraction octree): "
                    "its geometric multigrid preconditioner coarsens that tree"
                )
            if not np.array_equal(mesh.domain, np.asarray(cfg.domain, dtype=np.float64)):
                raise ValueError(
                    f"mesh domain {tuple(map(float, mesh.domain))} is not "
                    f"config.domain {tuple(map(float, cfg.domain))}"
                )
            self.mesh = mesh
        else:
            if tree is None:
                tree = LinearOctree.uniform(cfg.initial_level)
            self.mesh = extract_mesh(tree, cfg.domain)
        t_init = T_init or (lambda c: conductive_profile(c, domain=cfg.domain))
        self._t_init = t_init
        Tn = t_init(self.mesh.node_coords())
        self.T = self.mesh.expand(Tn[self.mesh.indep_nodes])
        self.u = np.zeros((self.mesh.n_nodes, 3))
        self.eta_elem = np.ones(self.mesh.n_elements)
        self.edot_elem = np.zeros(self.mesh.n_elements)
        self.sim_time = 0.0
        self.step_count = 0
        self.history: list[StepDiagnostics] = []
        self._prec_lag = LaggedStokesPreconditioner(rtol=cfg.prec_lag_rtol)
        self._p_prev: np.ndarray | None = None  # pressure warm start
        self._p_prev_mesh: Mesh | None = None

    @classmethod
    def resume_from(
        cls, path: str, config: RheaConfig | None = None,
        include_solver_state: bool = True,
    ) -> "MantleConvection":
        """Rebuild a run from a checkpoint directory (or a root of them);
        see :func:`repro.checkpoint.restore_convection`.  ``config`` must
        match the run that saved the checkpoint."""
        from ..checkpoint import restore_convection

        return restore_convection(
            path, config=config, include_solver_state=include_solver_state
        )

    # -- initial adaptation -----------------------------------------------------

    def adapt_initial(self, rounds: int = 3, target: int | None = None) -> None:
        """Pre-adapt the mesh to the initial temperature before stepping
        (mirrors NEWTREE at a coarse level + refinement to the data)."""
        for _ in range(rounds):
            with obs.phase("amr"):
                self.adapt(target=target)
            Tn = self._t_init(self.mesh.node_coords())
            self.T = self.mesh.expand(Tn[self.mesh.indep_nodes])

    # -- Stokes ---------------------------------------------------------------------

    def solve_stokes(self) -> dict:
        """One column of :func:`picard`: each pass builds the Stokes
        system and solves it by MINRES with the drift-lagged block
        preconditioner.  Returns solver statistics."""
        cfg = self.config

        def solve(etas, guess, active):
            st = StokesSystem(
                self.mesh, etas[0], buoyancy([self])[..., 0], bc=cfg.velocity_bc
            )
            prec = self._prec_lag.get(st)
            res = minres(
                st.matvec, st.rhs(), M=prec.apply, x0=guess(st.bc.dofs)[:, 0],
                tol=cfg.stokes_tol, maxiter=cfg.stokes_maxiter,
            )
            return res.x[:, None], [res.iterations], [res.converged]

        (stats,) = picard([self], solve)
        stats["prec_builds"] = self._prec_lag.n_builds
        stats["prec_reuses"] = self._prec_lag.n_reuses
        return stats

    # -- Stokes solution <-> state (what the Picard loop calls) ---------------------

    def stokes_guess(self, bc_dofs: np.ndarray) -> np.ndarray:
        """MINRES warm start ``[u_x|u_y|u_z|p]`` on independent dofs:
        the current velocity field and the previous mean-free pressure
        solution (both survive mesh adaptation through the field
        transfer).  All zeros — a cold start — while the velocity is
        still zero."""
        mesh = self.mesh
        n = mesh.n_independent
        x0 = np.zeros(4 * n)
        if np.any(self.u):
            for a in range(3):
                x0[a * n : (a + 1) * n] = self.u[mesh.indep_nodes, a]
            x0[bc_dofs] = 0.0
            if self._p_prev is not None and self._p_prev_mesh is mesh:
                x0[3 * n :] = self._p_prev
        return x0

    def accept_stokes(self, x: np.ndarray) -> float:
        """Take one MINRES solution ``[u_x|u_y|u_z|p]`` into the state:
        remember the mean-free pressure for the next warm start (enclosed
        flow fixes pressure only up to a constant), expand the velocity
        to all nodes, and return its relative increment — the Picard
        convergence measure."""
        mesh = self.mesh
        n = mesh.n_independent
        p = x[3 * n :].copy()
        p -= p.mean()
        self._p_prev = p
        self._p_prev_mesh = mesh
        u_new = np.empty((mesh.n_nodes, 3))
        for a in range(3):
            u_new[:, a] = mesh.expand(x[a * n : (a + 1) * n])
        du = np.linalg.norm(u_new - self.u) / max(np.linalg.norm(u_new), 1e-30)
        self.u = u_new
        return du

    def rebind_mesh(self, mesh: Mesh) -> None:
        """Swap in a structurally identical mesh object (the fleet's
        interned one: deterministic extraction gives identical numbering,
        so fields and the pressure warm start carry over verbatim)."""
        if self._p_prev_mesh is self.mesh:
            self._p_prev_mesh = mesh
        self.mesh = mesh

    # -- temperature -------------------------------------------------------------------

    def advance_temperature(self, n_steps: int) -> float:
        """One column of :func:`advect`: ``n_steps`` explicit steps of the
        energy equation; returns the time step used."""
        return float(advect([self], [n_steps])[0])

    # -- adaptation --------------------------------------------------------------------

    def adapt(self, target: int | None = None) -> "AdaptReport":
        """One Figure-4 adaptation pass driven by the combined indicator;
        transfers temperature, velocity and the pressure warm start to the
        new mesh."""
        cfg = self.config
        target = target or cfg.target_elements or self.mesh.n_elements
        eta_ind = combined_indicator(
            self.mesh, self.T, self.eta_elem, cfg.viscosity_weight
        )
        # stress localization: keep the high-deviatoric-stress (yielding)
        # zones at the finest resolution, as in the Sec. VI runs.  Stress
        # (2 eta edot), not strain rate, is the right localizer: the
        # low-viscosity interior strains fast at low stress.
        stress = 2.0 * self.eta_elem * self.edot_elem
        if cfg.strain_weight > 0 and stress.max() > 0:
            eta_ind = eta_ind + cfg.strain_weight * (stress / stress.max())
        # plastic yielding zones (weak plate boundaries) are refined
        # directly: yielding caps the stress at sigma_y, so neither the
        # thermal nor the stress term can single them out
        if cfg.yield_weight > 0 and hasattr(cfg.viscosity, "yielded_mask"):
            T_e = element_temperature(self.mesh, self.T)
            z_e = self.mesh.element_centers()[:, 2] / cfg.domain[2]
            yielded = cfg.viscosity.yielded_mask(T_e, z_e, self.edot_elem)
            eta_ind = eta_ind + cfg.yield_weight * yielded
        fields = {
            "T": self.T,
            "ux": self.u[:, 0],
            "uy": self.u[:, 1],
            "uz": self.u[:, 2],
        }
        if self._p_prev is not None and self._p_prev_mesh is self.mesh:
            fields["p"] = self.mesh.expand(self._p_prev)
        new_mesh, new_fields, report = adapt_mesh(
            self.mesh, eta_ind, target, fields,
            min_level=cfg.min_level, max_level=cfg.max_level,
            tol=cfg.mark_tol,
        )
        self.mesh = new_mesh
        self.T = np.clip(new_fields["T"], 0.0, 1.5)
        self.u = np.stack(
            [new_fields["ux"], new_fields["uy"], new_fields["uz"]], axis=1
        )
        if "p" in new_fields:
            p = new_fields["p"][new_mesh.indep_nodes]
            self._p_prev = p - p.mean()
            self._p_prev_mesh = new_mesh
        self.eta_elem = np.ones(new_mesh.n_elements)
        self.edot_elem = strain_rate_invariant(new_mesh, self.u)
        return report

    # -- diagnostics -------------------------------------------------------------------

    def vrms(self) -> float:
        """RMS velocity weighted by element volumes."""
        vol = self.mesh.element_sizes().prod(axis=1)
        uc = self.u[self.mesh.element_nodes].mean(axis=1)  # (ne, 3)
        v2 = np.einsum("ea,ea->e", uc, uc)
        return float(np.sqrt((vol * v2).sum() / vol.sum()))

    def nusselt(self) -> float:
        """Nusselt number: mean conductive flux through the top boundary
        divided by the purely conductive value."""
        from .error import element_gradient

        g = element_gradient(self.mesh, self.T)
        c = self.mesh.element_centers()
        sizes = self.mesh.element_sizes()
        top = c[:, 2] + sizes[:, 2] / 2 >= self.config.domain[2] * (1 - 1e-9)
        if not top.any():
            return np.nan
        area = (sizes[top, 0] * sizes[top, 1]).sum()
        flux = -(g[top, 2] * sizes[top, 0] * sizes[top, 1]).sum()
        dz = self.config.domain[2]
        return float(flux / area * dz)  # conductive flux = 1/dz

    def mean_temperature(self) -> float:
        vol = self.mesh.element_sizes().prod(axis=1)
        T_e = element_temperature(self.mesh, self.T)
        return float((vol * T_e).sum() / vol.sum())

    def cache_stats(self) -> dict:
        """Hit/miss counters of the current mesh's operator cache plus the
        lagged-preconditioner build/reuse tallies."""
        c = operator_cache(self.mesh)
        return {
            "cache_hits": c.hits,
            "cache_misses": c.misses,
            "prec_builds": self._prec_lag.n_builds,
            "prec_reuses": self._prec_lag.n_reuses,
        }

    def record_cycle(self, stats: dict) -> StepDiagnostics:
        """Append (and return) the diagnostics of the cycle just
        completed; ``stats`` is what :meth:`solve_stokes` returned."""
        d = StepDiagnostics(
            step=self.step_count,
            time=self.sim_time,
            n_elements=self.mesh.n_elements,
            vrms=self.vrms(),
            nusselt=self.nusselt(),
            mean_T=self.mean_temperature(),
            minres_iterations=stats["minres_iterations"],
            picard_iterations=stats["picard_iterations"],
            eta_min=stats["eta_min"],
            eta_max=stats["eta_max"],
        )
        self.history.append(d)
        return d

    # -- main loop ----------------------------------------------------------------------

    def run(
        self, n_cycles: int, adapt: bool = True, checkpoint: Checkpointer | None = None
    ) -> list[StepDiagnostics]:
        """Run ``n_cycles`` of (adapt -> Stokes solve -> advance
        temperature ``adapt_every`` steps), recording diagnostics.

        ``checkpoint`` is a :class:`~repro.checkpoint.Checkpointer` or
        None (anything else raises ``TypeError``); snapshots land after the cycles
        they complete, so a crash loses at most the current cycle.  The
        fault-injection hook of :mod:`repro.parallel.simcomm` is polled
        mid-cycle (serial drivers count as rank 0).
        """
        from ..parallel import check_fault

        if checkpoint is not None and not isinstance(checkpoint, Checkpointer):
            raise TypeError(
                "checkpoint= expects a Checkpointer or None, got "
                f"{type(checkpoint).__name__}"
            )
        cfg = self.config
        for _ in range(n_cycles):
            if adapt:
                with obs.phase("amr"):
                    report = self.adapt()
                    obs.counter("elements_marked_refine", report.n_refined)
                    obs.counter("elements_coarsened", report.n_coarsened)
            check_fault(None, self.step_count)
            c0 = self.cache_stats()
            with obs.phase("stokes"):
                stats = self.solve_stokes()
                c1 = self.cache_stats()
                obs.counter("cache_hits", c1["cache_hits"] - c0["cache_hits"])
                obs.counter("cache_misses", c1["cache_misses"] - c0["cache_misses"])
            with obs.phase("advection"):
                self.advance_temperature(cfg.adapt_every)
            self.record_cycle(stats)
            if checkpoint is not None and checkpoint.due(len(self.history)):
                checkpoint.save_convection(self)
        return self.history
