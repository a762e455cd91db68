"""The distributed Figure-4 adaptation pipeline, one obs phase per function.

This is the end-to-end SPMD loop the paper benchmarks in Section V:
explicit SUPG advection-diffusion of a sharp front, with the mesh
re-adapted every N steps through NEWTREE / MARKELEMENTS / COARSENTREE /
REFINETREE / BALANCETREE / PARTITIONTREE / EXTRACTMESH /
INTERPOLATEFIELDS / TRANSFERFIELDS.  Every stage runs inside its own
:func:`repro.obs.phase` (``amr/new_tree``, ``amr/mark``, ...,
``amr/transfer``; time integration is ``advection``), so a bound
:class:`~repro.obs.PhaseTimer` records its wall time and communication
delta (for the machine-model extrapolation to paper-scale core counts)
and :func:`repro.obs.generate_report` gives the AMR fraction.

The workload (:class:`RotatingFrontWorkload`) mirrors the paper's: a thin
spherical temperature front advected by a rotating velocity field, so the
refined region sweeps through the domain and "typically half the elements
are coarsened or refined at each adaptation step" (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import obs
from ..checkpoint import Checkpointer
from ..fem import ParAdvectionDiffusion
from ..forest import FOREST_MAX_LEVEL, ParForest
from ..mesh.parmesh import ParMesh, extract_parmesh, par_interpolate_at
from ..octree.partree import (
    balance_tree,
    coarsen_tree,
    new_tree,
    partition_tree,
    refine_tree,
)
from ..parallel import SimComm, check_fault
from .mark import mark_elements, relocate_refine_marks

__all__ = ["ParAmrPipeline", "ParAdaptStats", "RotatingFrontWorkload", "rotating_velocity"]


@dataclass
class ParAdaptStats:
    """Per-adaptation-step bookkeeping (global counts)."""

    n_before: int
    n_after: int
    n_refined: int
    n_coarsened: int
    n_balance_added: int
    n_unchanged: int
    level_histogram: dict


def rotating_velocity(center=(0.5, 0.5, 0.5), omega=(0.0, 0.0, 1.0), scale=1.0):
    """Rigid rotation about an axis through ``center`` — keeps sharp
    fronts moving through the mesh forever (maximal AMR stress)."""
    c = np.asarray(center, dtype=np.float64)
    om = np.asarray(omega, dtype=np.float64) * scale

    def vel(x: np.ndarray) -> np.ndarray:
        return np.cross(np.broadcast_to(om, x.shape), x - c)

    return vel


@dataclass
class RotatingFrontWorkload:
    """Advection-dominated transport of a thin spherical front."""

    kappa: float = 1e-6
    front_radius: float = 0.25
    front_width: float = 0.05
    front_center: tuple = (0.5, 0.35, 0.5)
    velocity: Callable = field(default_factory=rotating_velocity)

    def initial(self, coords: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(coords - np.asarray(self.front_center), axis=1)
        return 0.5 * (1.0 - np.tanh((r - self.front_radius) / self.front_width))


class ParAmrPipeline:
    """SPMD driver: owns the distributed tree (``pt``, this rank's
    segment of the one-tree :class:`~repro.forest.ParForest`), mesh and
    temperature field.

    Per-function seconds are the phases of the rank's bound
    :class:`~repro.obs.PhaseTimer` (none bound: nothing is timed);
    communication totals are read from ``comm.stats``.
    """

    def __init__(
        self,
        comm: SimComm,
        workload: RotatingFrontWorkload | None = None,
        coarse_level: int = 2,
        min_level: int = 1,
        max_level: int = 6,
        tree: ParForest | None = None,
    ):
        if max_level > FOREST_MAX_LEVEL:
            raise ValueError(
                f"max_level must be <= {FOREST_MAX_LEVEL} (the deepest level "
                f"2:1 balance encodes), got {max_level}"
            )
        self.comm = comm
        self.workload = workload or RotatingFrontWorkload()
        self.min_level = min_level
        self.max_level = max_level
        self.adapt_history: list[ParAdaptStats] = []
        self.steps_taken = 0
        self.sim_time = 0.0
        self.cycles_done = 0

        if tree is not None:
            # restart path: ``tree`` is this rank's segment of an
            # already-balanced forest (checkpoints save post-balance
            # state), so NEWTREE and BALANCETREE are skipped
            self.pt = tree
        else:
            with obs.phase("amr/new_tree"):
                self.pt = new_tree(comm, coarse_level)
            with obs.phase("amr/balance"):
                self.pt, _, _ = balance_tree(self.pt, "corner")
        with obs.phase("amr/extract_mesh"):
            self.pm: ParMesh = extract_parmesh(self.pt)
        coords = self.pm.mesh.node_coords()
        T0 = self.workload.initial(coords)
        self.T = T0[self.pm.mesh.indep_nodes]

    # -- error indicator --------------------------------------------------------

    def indicator(self) -> np.ndarray:
        """h * |grad T| over owned elements."""
        from ..rhea.error import gradient_indicator

        mesh = self.pm.mesh
        return gradient_indicator(mesh, mesh.expand(self.T))[self.pm.owned_elements]

    # -- one adaptation step ----------------------------------------------------------

    def adapt(self, target: int) -> ParAdaptStats:
        comm = self.comm
        old_pm = self.pm
        u_full_old = old_pm.mesh.expand(self.T)
        eta = self.indicator()
        n_before = self.pt.global_count()

        with obs.phase("amr/mark"):
            mark = mark_elements(
                eta,
                self.pt.octs.level.astype(np.int64),
                target,
                comm=comm,
                min_level=self.min_level,
                max_level=self.max_level,
            )

        with obs.phase("amr/coarsen"):
            coarsen_mask = mark.coarsen & ~mark.refine
            pt, nfam = coarsen_tree(self.pt, coarsen_mask)
            obs.counter("elements_coarsened", 8 * nfam)

        with obs.phase("amr/refine"):
            mask = relocate_refine_marks(self.pt.octs, mark.refine, pt.octs)
            n_refined = comm.allreduce(int(mask.sum()))
            pt = refine_tree(pt, mask)
            obs.counter("elements_marked_refine", int(mask.sum()))

        with obs.phase("amr/balance"):
            pt, added, _ = balance_tree(pt, "corner")
            obs.counter("balance_added", added)

        with obs.phase("amr/partition"):
            pt, plan = partition_tree(pt)

        with obs.phase("amr/extract_mesh"):
            pm = extract_parmesh(pt)

        with obs.phase("amr/interpolate"):
            # each point is evaluated on its own: ask only for the dofs
            indep_coords = pm.mesh.node_coords()[pm.mesh.indep_nodes]
            self.T = par_interpolate_at(old_pm, u_full_old, indep_coords)

        with obs.phase("amr/transfer"):
            # TRANSFERFIELDS: per-element data rides the partition plan (here:
            # the post-adaptation error indicator placeholder, exercising the
            # same code path the paper times)
            elem_payload = np.zeros((plan.send_slices[-1][1], 1))
            plan.transfer(comm, elem_payload)

        self.pt, self.pm = pt, pm
        n_after = pt.global_count()
        n_coarsened = 8 * comm.allreduce(nfam)
        stats = ParAdaptStats(
            n_before=n_before,
            n_after=n_after,
            n_refined=n_refined,
            n_coarsened=n_coarsened,
            n_balance_added=added,
            n_unchanged=n_before - n_refined - n_coarsened,
            level_histogram=pt.level_histogram(),
        )
        self.adapt_history.append(stats)
        return stats

    # -- time integration -------------------------------------------------------------

    def _advance(self, cfl: float, plan) -> tuple[float, int]:
        """Build the transport operator on the current mesh and take the
        ``(dt, n_steps) = plan(cfl_dt)`` steps; returns that pair."""
        with obs.phase("advection"):
            with obs.phase("build"):
                eq = ParAdvectionDiffusion(
                    self.pm, self.workload.kappa, self.workload.velocity
                )
            dt, n_steps = plan(eq.cfl_dt(cfl))
            self.T = eq.advance(self.T, dt, n_steps)
            obs.counter("advection_steps", n_steps)
        self.steps_taken += n_steps
        self.sim_time += n_steps * dt
        return dt, n_steps

    def advance(self, n_steps: int, cfl: float = 0.4) -> float:
        return self._advance(cfl, lambda dt: (dt, n_steps))[0]

    def advance_time(self, t_span: float, cfl: float = 0.4) -> int:
        """Advance by a fixed physical time (however many CFL steps that
        takes on the current mesh); returns the step count."""

        def equal_steps(dt):
            n = max(int(np.ceil(t_span / dt)), 1)
            return t_span / n, n

        return self._advance(cfl, equal_steps)[1]

    def run_cycles(
        self,
        n_cycles: int,
        steps_per_cycle: int,
        target: int,
        checkpoint: Checkpointer | None = None,
    ) -> None:
        """The outer loop: adapt, advance, optionally snapshot.

        ``checkpoint`` is a :class:`~repro.checkpoint.Checkpointer` or
        None (anything else raises ``TypeError``); the fault-injection hook is
        polled mid-cycle, between adaptation and time integration, so an
        armed fault loses exactly the work since the last snapshot.
        """
        if checkpoint is not None and not isinstance(checkpoint, Checkpointer):
            raise TypeError(
                "checkpoint= expects a Checkpointer or None, got "
                f"{type(checkpoint).__name__}"
            )
        for _ in range(n_cycles):
            self.adapt(target)
            check_fault(self.comm, self.steps_taken)
            self.advance(steps_per_cycle)
            self.cycles_done += 1
            if checkpoint is not None and checkpoint.due(self.cycles_done):
                checkpoint.save_pipeline(self)
