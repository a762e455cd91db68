"""RHEA: the coupled adaptive mantle convection simulation.

Implements the solution strategy of Section III on top of the ALPS mesh
layer: each time step splits into an explicit SUPG advection-diffusion
update of temperature and a variable-viscosity Stokes solve for the flow,
with the strain-rate-dependent (yielding) viscosity handled by Picard
fixed-point iteration.  The mesh is re-adapted every ``adapt_every`` steps
through the Figure-4 pipeline, transferring temperature and velocity.

Nondimensionalization follows eqs. (1)-(3): buoyancy ``Ra T e_z`` drives
the flow, kappa = 1, and the Rayleigh number controls vigor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..amr import adapt_mesh
from ..fem import AdvectionDiffusion, StokesSystem, element_velocity_from_nodal
from ..forest import FOREST_MAX_LEVEL
from ..mesh import Mesh, extract_mesh
from ..mesh.opcache import operator_cache
from ..octree import LinearOctree
from ..solvers import LaggedStokesPreconditioner, minres
from .error import combined_indicator
from .viscosity import ArrheniusViscosity, element_temperature, strain_rate_invariant

__all__ = ["ConfigError", "RheaConfig", "MantleConvection", "conductive_profile"]

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

        def positive(field: str, minimum: float = 0.0, strict: bool = True):
            v = getattr(self, field)
            if not _finite(v):
                errors.append((field, f"must be a finite number, got {v!r}"))
            elif (float(v) <= minimum) if strict else (float(v) < minimum):
                op = ">" if strict else ">="
                errors.append((field, f"must be {op} {minimum:g}, got {v!r}"))

        choice("stokes_preconditioner", ("gmg",))
        choice("velocity_bc", ("free_slip", "no_slip"))
        positive("Ra", strict=False)
        positive("cfl")
        positive("kappa", strict=False)
        positive("picard_tol")
        positive("stokes_tol")
        positive("prec_lag_rtol", strict=False)
        positive("picard_iterations", minimum=1, strict=False)
        positive("stokes_maxiter", minimum=1, strict=False)
        positive("adapt_every", minimum=1, strict=False)
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
    timings: dict = field(default_factory=dict)


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
            self.adapt(target=target)
            Tn = self._t_init(self.mesh.node_coords())
            self.T = self.mesh.expand(Tn[self.mesh.indep_nodes])

    # -- Stokes ---------------------------------------------------------------------

    def _body_force(self) -> np.ndarray:
        f = np.zeros((self.mesh.n_nodes, 3))
        f[:, 2] = self.config.Ra * self.T
        return f

    def solve_stokes(self) -> dict:
        """Picard iteration over the strain-rate-dependent viscosity.

        Each pass evaluates the viscosity law at the current velocity,
        assembles the Stokes system, and solves by MINRES (warm-started
        from the previous solution) with the lagged block preconditioner.
        Returns solver statistics.
        """
        cfg = self.config
        mesh = self.mesh
        T_e = element_temperature(mesh, self.T)
        z_e = mesh.element_centers()[:, 2] / cfg.domain[2]
        total_minres = 0
        n_picard = 0
        for k in range(max(cfg.picard_iterations, 1)):
            n_picard = k + 1
            edot = strain_rate_invariant(mesh, self.u)
            eta = cfg.viscosity(T_e, z_e, edot)
            self.eta_elem = eta
            self.edot_elem = edot
            st = StokesSystem(mesh, eta, self._body_force(), bc=cfg.velocity_bc)
            prec = self._prec_lag.get(st)
            res = minres(
                st.matvec, st.rhs(), M=prec.apply, x0=self.stokes_guess(st.bc.dofs),
                tol=cfg.stokes_tol, maxiter=cfg.stokes_maxiter,
            )
            total_minres += res.iterations
            du = self.accept_stokes(res.x)
            if du < cfg.picard_tol:
                break
        obs.counter("picard_iterations", n_picard)
        stats = self.stokes_stats(total_minres, n_picard, res.converged)
        stats["prec_builds"] = self._prec_lag.n_builds
        stats["prec_reuses"] = self._prec_lag.n_reuses
        return stats

    # -- Stokes solution <-> state (shared with repro.fleet.batch) ------------------

    def stokes_guess(self, bc_dofs: np.ndarray) -> np.ndarray:
        """MINRES warm start ``[u_x|u_y|u_z|p]`` on independent dofs:
        the current velocity field (which survives mesh adaptation
        through the field transfer) and, on an unchanged mesh, the
        previous pressure solution.  All zeros — a cold start — while
        the velocity is still zero."""
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

    def stokes_stats(self, minres_iterations, picard_iterations, converged) -> dict:
        """The statistics dict :meth:`solve_stokes` returns for one cycle."""
        return {
            "minres_iterations": int(minres_iterations),
            "picard_iterations": int(picard_iterations),
            "eta_min": float(self.eta_elem.min()),
            "eta_max": float(self.eta_elem.max()),
            "converged": bool(converged),
        }

    def rebind_mesh(self, mesh: Mesh) -> None:
        """Swap in a structurally identical mesh object (the fleet's
        interned one: deterministic extraction gives identical numbering,
        so fields and the pressure warm start carry over verbatim)."""
        if self._p_prev_mesh is self.mesh:
            self._p_prev_mesh = mesh
        self.mesh = mesh

    # -- temperature -------------------------------------------------------------------

    def advance_temperature(self, n_steps: int) -> float:
        """Advance the energy equation ``n_steps`` explicit steps with the
        frozen Stokes velocity; returns the time step used."""
        cfg = self.config
        vel_e = element_velocity_from_nodal(self.mesh, self.u)
        eq = AdvectionDiffusion(
            self.mesh, cfg.kappa, vel_e, source=cfg.gamma, dirichlet=THERMAL_BCS
        )
        dt = eq.cfl_dt(cfg.cfl)
        T_ind = self.T[self.mesh.indep_nodes]
        T_ind = eq.advance(T_ind, dt, n_steps)
        self.T = self.mesh.expand(T_ind)
        self.sim_time += n_steps * dt
        self.step_count += n_steps
        return dt

    # -- adaptation --------------------------------------------------------------------

    def adapt(self, target: int | None = None) -> "AdaptReport":
        """One Figure-4 adaptation pass driven by the combined indicator;
        transfers temperature and velocity to the new mesh."""
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

    def record_cycle(self, stats: dict, timings: dict) -> StepDiagnostics:
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
            timings=timings,
        )
        self.history.append(d)
        return d

    # -- main loop ----------------------------------------------------------------------

    def run(
        self, n_cycles: int, adapt: bool = True, checkpoint=None
    ) -> list[StepDiagnostics]:
        """Run ``n_cycles`` of (adapt -> Stokes solve -> advance
        temperature ``adapt_every`` steps), recording diagnostics.

        ``checkpoint`` is a path / CheckpointConfig / Checkpointer (see
        :mod:`repro.checkpoint.driver`); snapshots land after the cycles
        they complete, so a crash loses at most the current cycle.  The
        fault-injection hook of :mod:`repro.parallel.simcomm` is polled
        mid-cycle (serial drivers count as rank 0).
        """
        from ..parallel import check_fault

        cfg = self.config
        ckpt = None
        if checkpoint is not None:
            from ..checkpoint import Checkpointer

            ckpt = Checkpointer.coerce(checkpoint)
        for _ in range(n_cycles):
            timings = {}
            if adapt:
                t0 = time.perf_counter()
                with obs.phase("amr"):
                    report = self.adapt()
                    obs.counter("elements_marked_refine", report.n_refined)
                    obs.counter("elements_coarsened", report.n_coarsened)
                timings["AMR"] = time.perf_counter() - t0
                timings.update(report.timings)
            check_fault(None, self.step_count)
            t0 = time.perf_counter()
            c0 = self.cache_stats()
            with obs.phase("stokes"):
                stats = self.solve_stokes()
                c1 = self.cache_stats()
                obs.counter("cache_hits", c1["cache_hits"] - c0["cache_hits"])
                obs.counter("cache_misses", c1["cache_misses"] - c0["cache_misses"])
            timings["Stokes"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            with obs.phase("advection"):
                self.advance_temperature(cfg.adapt_every)
                obs.counter("advection_steps", cfg.adapt_every)
            timings["TimeIntegration"] = time.perf_counter() - t0
            self.record_cycle(stats, timings)
            if ckpt is not None and ckpt.due(len(self.history)):
                ckpt.save_convection(self)
        return self.history
