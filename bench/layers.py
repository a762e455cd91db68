"""What the traced pass wraps and which per-layer metrics it derives.

``ENTRY_POINTS`` is the fixed table of public entry points of ``repro``
(layers = ``src/repro`` modules; a span is named ``<layer>.<what>``).
``PER_LAYER`` declares every per-layer metric: unit, direction, whether it
is an exact count that must repeat, the end-to-end metric and workload it
is expected to move ("moves"; on every other workload the prediction is no
change), and how it is computed from span totals and program counters.
"""

from __future__ import annotations

import statistics
from collections import namedtuple

from .trace import ZERO_TOTALS

CYCLE_SPAN = "bench.cycle"

# -- probes: exact numbers read at the call boundary ------------------------


def _minres_probe(args, kwargs, res):
    return (res.iterations, 0 if res.converged else 1)


def _batched_minres_probe(args, kwargs, res):
    return (int(res.iterations.max()),)


def _adapt_probe(args, kwargs, report):
    return (report.n_refined, report.n_coarsened, report.n_balance_added)


def _steps_probe(args, kwargs, res):
    """``advance(self, field, dt, n_steps)``."""
    return (kwargs["n_steps"] if "n_steps" in kwargs else args[3],)


def _dg_steps_probe(args, kwargs, res):
    n = kwargs["n_steps"] if "n_steps" in kwargs else args[3]
    return (n, n * args[0].n_dof)


def _complexity_probe(args, kwargs, res):
    return (args[0].operator_complexity,)


def _forest_balance_probe(args, kwargs, res):
    return (res[1],)


def _saddle_probe(args, kwargs, res):
    """Computed flops and bytes of one matrix-free saddle apply."""
    from repro.fem.matfree import saddle_apply_bytes, saddle_apply_flops

    op, x = args[0], args[1]
    nb = 1 if x.ndim == 1 else x.shape[1]
    ne = op.mesh.n_elements
    nnz = op.gu.G.nnz + op.gp.G.nnz
    return (nb * saddle_apply_flops(ne), nb * saddle_apply_bytes(ne, nnz))


# -- wrapped entry points: (span, "module:attribute", probe) -----------------

_CONV = "repro.rhea.convection:MantleConvection."
_GMG = "repro.solvers.gmg:"
_PARTREE = "repro.octree.partree:"
_COMM = "repro.parallel.simcomm:SimComm."

ENTRY_POINTS = [
    ("rhea.adapt", _CONV + "adapt", _adapt_probe),
    ("rhea.solve_stokes", _CONV + "solve_stokes", None),
    ("rhea.advance_temperature", _CONV + "advance_temperature", None),
    ("rhea.diagnostics", _CONV + "vrms", None),
    ("rhea.diagnostics", _CONV + "nusselt", None),
    ("rhea.diagnostics", _CONV + "mean_temperature", None),
    ("rhea.viscosity", "repro.rhea.viscosity:strain_rate_invariant", None),
    ("solvers.minres", "repro.solvers.minres:minres", _minres_probe),
    ("solvers.prec_get", "repro.solvers.blockprec:LaggedStokesPreconditioner.get", None),
    ("solvers.amg_prec_init", "repro.solvers.blockprec:StokesBlockPreconditioner.__init__",
     _complexity_probe),
    ("solvers.prec_apply", "repro.solvers.blockprec:StokesBlockPreconditioner.apply", None),
    ("solvers.amg_setup", "repro.solvers.amg:SmoothedAggregationAMG.__init__", None),
    ("solvers.amg_vcycle", "repro.solvers.amg:SmoothedAggregationAMG.vcycle", None),
    ("solvers.gmg_setup", _GMG + "GMGStokesPreconditioner.__init__", None),
    ("solvers.gmg_setup", _GMG + "GMGStokesPreconditioner.update_viscosity", None),
    ("solvers.prec_apply", _GMG + "GMGStokesPreconditioner.apply", None),
    ("solvers.gmg_hierarchy", _GMG + "mesh_hierarchy", None),
    ("solvers.gmg_vcycle", _GMG + "GeometricMultigrid.vcycle", None),
    ("solvers.gmg_smoother", _GMG + "ChebyshevSmoother.apply", None),
    ("solvers.gmg_poisson_apply", _GMG + "MatFreeScalarPoisson.apply", None),
    ("fem.stokes_build", "repro.fem.stokes:StokesSystem.__init__", None),
    ("fem.stokes_build", "repro.fem.stokes:StokesSystem.rhs", None),
    ("fem.stokes_build", "repro.fem.stokes:StokesSystem.schur_diagonal", None),
    ("fem.stokes_matvec", "repro.fem.stokes:StokesSystem.matvec", None),
    ("fem.matfree_apply", "repro.fem.matfree:MatFreeStokesOperator.apply", _saddle_probe),
    ("fem.assembly", "repro.fem.assembly:assemble_scalar", None),
    ("fem.assembly", "repro.fem.assembly:assemble_vector", None),
    ("fem.assembly", "repro.fem.assembly:assemble_divergence", None),
    ("fem.advection_build", "repro.fem.advection:AdvectionDiffusion.__init__", None),
    ("fem.advection_advance", "repro.fem.advection:AdvectionDiffusion.advance", _steps_probe),
    ("fem.paradvection_build", "repro.fem.paradvection:ParAdvectionDiffusion.__init__", None),
    ("fem.paradvection_advance", "repro.fem.paradvection:ParAdvectionDiffusion.advance",
     _steps_probe),
    ("amr.adapt_mesh", "repro.amr.driver:adapt_mesh", None),
    ("amr.mark", "repro.amr.mark:mark_elements", None),
    ("amr.pipeline_adapt", "repro.amr.pardriver:ParAmrPipeline.adapt", _adapt_probe),
    ("amr.pipeline_advance", "repro.amr.pardriver:ParAmrPipeline.advance_time", None),
    ("octree.new_tree", _PARTREE + "new_tree", None),
    ("octree.coarsen", _PARTREE + "coarsen_tree", None),
    ("octree.refine", _PARTREE + "refine_tree", None),
    ("octree.balance", _PARTREE + "balance_tree", None),
    ("octree.partition", _PARTREE + "partition_tree", None),
    ("octree.partition_markers", _PARTREE + "partition_markers", None),
    ("mesh.extract", "repro.mesh.extract:extract_mesh", None),
    ("mesh.extract_par", "repro.mesh.parmesh:extract_parmesh", None),
    ("mesh.ghost", "repro.mesh.parmesh:collect_ghosts", None),
    ("mesh.interpolate", "repro.mesh.parmesh:par_interpolate_at", None),
    ("mesh.interpolate", "repro.mesh.fields:interpolate_fields", None),
    ("parallel.barrier", _COMM + "barrier", None),
    ("parallel.allgather", _COMM + "allgather", None),
    ("parallel.allgather_concat", _COMM + "allgather_concat", None),
    ("parallel.gather", _COMM + "gather", None),
    ("parallel.bcast", _COMM + "bcast", None),
    ("parallel.allreduce", _COMM + "allreduce", None),
    ("parallel.exscan", _COMM + "exscan", None),
    ("parallel.alltoall", _COMM + "alltoall", None),
    ("parallel.alltoallv_arrays", _COMM + "alltoallv_arrays", None),
    ("parallel.send", _COMM + "send", None),
    ("parallel.recv", _COMM + "recv", None),
    ("parallel.sendrecv", _COMM + "sendrecv", None),
    ("checkpoint.save", "repro.checkpoint.snapshot:save_pipeline", None),
    ("checkpoint.restore", "repro.checkpoint.restore:restore_pipeline", None),
    ("fleet.admit", "repro.fleet.service:FleetService.admit", None),
    ("fleet.step", "repro.fleet.service:FleetService.step", None),
    ("fleet.batch_solve", "repro.fleet.batch:BatchGroup.solve_stokes", None),
    ("fleet.batch_advance", "repro.fleet.batch:BatchGroup.advance_temperature", None),
    ("fleet.batched_minres", "repro.fleet.batch:batched_minres", _batched_minres_probe),
    ("fleet.scheduler", "repro.fleet.scheduler:FleetScheduler.select", None),
    ("forest.refine", "repro.forest.forest:Forest.refine", None),
    ("forest.coarsen", "repro.forest.forest:Forest.coarsen", None),
    ("forest.balance", "repro.forest.forest:Forest.balance", _forest_balance_probe),
    ("forest.partition", "repro.forest.forest:Forest.partition_assignments", None),
    ("mangll.setup", "repro.mangll.dg:DGAdvection.__init__", None),
    ("mangll.advance", "repro.mangll.dg:DGAdvection.advance", _dg_steps_probe),
    ("mangll.rate", "repro.mangll.dg:DGAdvection.rate", None),
    ("mangll.transfer", "repro.mangll.transfer:dg_transfer", None),
]

LAYERS = sorted({span.split(".")[0] for span, _, _ in ENTRY_POINTS})

# -- the view a metric is computed from --------------------------------------


class View:
    """Span totals (rank 0 unless said otherwise), program counters and
    the traced run's own wall, as the metric formulas read them."""

    def __init__(self, tracer, wall_s: float, cycle_s_sum: float, counters: dict):
        self.tracer = tracer
        self.wall_s = wall_s
        self.cycle_s_sum = cycle_s_sum
        self.c = counters
        self._by_rank = {r: tracer.totals(r) for r in tracer.ranks()} or {0: {}}

    def _get(self, name, section):
        return self._by_rank[0].get((section, name), ZERO_TOTALS)

    def s(self, name, section="timed") -> float:
        """Inclusive seconds."""
        return self._get(name, section).incl

    def own(self, name, section="timed") -> float:
        """Self seconds."""
        return self._get(name, section).self_s

    def n(self, name, section="timed") -> int:
        return self._get(name, section).calls

    def p(self, name, i=0, section="timed") -> float:
        """Sum of the ``i``-th probe value."""
        probe = self._get(name, section).probe
        return probe[i] if probe else 0

    def count(self, key) -> float:
        return self.c.get(key, 0)

    def layer_self_s(self, layer, rank=0) -> float:
        return sum(
            t.self_s for (section, name), t in self._by_rank.get(rank, {}).items()
            if section == "timed" and name.split(".")[0] == layer
        )

    def layer_calls(self, layer) -> int:
        return sum(
            t.calls for (section, name), t in self._by_rank[0].items()
            if section == "timed" and name.split(".")[0] == layer
        )

    def per_rank_collective_s(self) -> list[float]:
        return [self.layer_self_s("parallel", r) for r in sorted(self._by_rank)]

    def barrier_wait_s(self) -> float:
        return max(
            (t.incl for r in self._by_rank
             for (section, name), t in self._by_rank[r].items()
             if section == "timed" and name == "parallel.barrier"),
            default=0.0,
        )

    def unattributed_s(self) -> float:
        """Timed wall outside every wrapped entry point."""
        return self.wall_s - self.tracer.top_level_seconds("timed", CYCLE_SPAN)


def _ratio(a, b):
    return a / b if b else 0.0


def _imbalance(v: View) -> float:
    busy = [v.wall_s - s for s in v.per_rank_collective_s()]
    return _ratio(max(busy), statistics.median(busy))


# -- per-layer metrics -------------------------------------------------------

Metric = namedtuple("Metric", "name unit better exact moves fn")

_CONVECT = "cycle_s @ convect_amg, convect_gmg"
_AMG = "cycle_s, setup_s, peak_rss_mb @ convect_amg"
_GMGW = "cycle_s @ convect_gmg"
_AMR = "cycle_s, elem_cycles_per_s @ amr_front_p2"
_FLEET = "scenario_cycles_per_s, cycle_s @ fleet_sweep"
_DG = "dof_steps_per_s, cycle_s @ dg_sphere"
_MATVEC = "cycle_s @ convect_amg, convect_gmg; scenario_cycles_per_s @ fleet_sweep"
_CACHE = "cycle_s @ convect_amg, convect_gmg, fleet_sweep"
_NONE = "none (measurement quality / outside the timed section)"


def _m(name, unit, better, moves, fn, exact=False):
    return Metric(name, unit, better, exact, moves, fn)


PER_LAYER = [
    # rhea
    _m("rhea.adapt_s", "s", "lower", _CONVECT, lambda v: v.s("rhea.adapt")),
    _m("rhea.solve_stokes_s", "s", "lower", _CONVECT, lambda v: v.s("rhea.solve_stokes")),
    _m("rhea.advance_temperature_s", "s", "lower", _CONVECT,
       lambda v: v.s("rhea.advance_temperature")),
    _m("rhea.diagnostics_s", "s", "lower", _CONVECT, lambda v: v.s("rhea.diagnostics")),
    _m("rhea.viscosity_s", "s", "lower", _CONVECT, lambda v: v.s("rhea.viscosity")),
    _m("rhea.picard_passes", "count", "lower", _CONVECT,
       lambda v: v.count("picard_passes"), exact=True),
    _m("rhea.unattributed_s", "s", "lower", _CONVECT, lambda v: v.own(CYCLE_SPAN)),
    # solvers
    _m("solvers.minres_s", "s", "lower", _CONVECT, lambda v: v.s("solvers.minres")),
    _m("solvers.minres_self_s", "s", "lower", _CONVECT, lambda v: v.own("solvers.minres")),
    _m("solvers.minres_calls", "count", "lower", _CONVECT,
       lambda v: v.n("solvers.minres"), exact=True),
    _m("solvers.minres_iters", "count", "lower", _CONVECT,
       lambda v: v.p("solvers.minres", 0), exact=True),
    _m("solvers.minres_iters_per_solve", "count", "lower", _CONVECT,
       lambda v: _ratio(v.p("solvers.minres", 0), v.n("solvers.minres")), exact=True),
    _m("solvers.prec_setup_s", "s", "lower", _AMG + "; " + _GMGW,
       lambda v: v.s("solvers.prec_get")),
    _m("solvers.prec_builds", "count", "lower", _AMG + "; " + _GMGW,
       lambda v: v.count("prec_builds"), exact=True),
    _m("solvers.prec_reuses", "count", "higher", _AMG + "; " + _GMGW,
       lambda v: v.count("prec_reuses"), exact=True),
    _m("solvers.prec_apply_s", "s", "lower", _CONVECT, lambda v: v.s("solvers.prec_apply")),
    _m("solvers.prec_apply_calls", "count", "lower", _CONVECT,
       lambda v: v.n("solvers.prec_apply"), exact=True),
    _m("solvers.amg_setup_s", "s", "lower", _AMG, lambda v: v.s("solvers.amg_setup")),
    _m("solvers.amg_vcycle_s", "s", "lower", _AMG, lambda v: v.s("solvers.amg_vcycle")),
    _m("solvers.amg_vcycles", "count", "lower", _AMG,
       lambda v: v.n("solvers.amg_vcycle"), exact=True),
    _m("solvers.amg_operator_complexity", "ratio", "lower", _AMG,
       lambda v: _ratio(v.p("solvers.amg_prec_init", 0), v.n("solvers.amg_prec_init"))),
    _m("solvers.gmg_setup_s", "s", "lower", _GMGW, lambda v: v.s("solvers.gmg_setup")),
    _m("solvers.gmg_hierarchy_s", "s", "lower", _GMGW, lambda v: v.s("solvers.gmg_hierarchy")),
    _m("solvers.gmg_vcycle_s", "s", "lower", _GMGW, lambda v: v.s("solvers.gmg_vcycle")),
    _m("solvers.gmg_vcycles", "count", "lower", _GMGW,
       lambda v: v.n("solvers.gmg_vcycle"), exact=True),
    _m("solvers.gmg_smoother_s", "s", "lower", _GMGW, lambda v: v.s("solvers.gmg_smoother")),
    _m("solvers.gmg_poisson_apply_s", "s", "lower", _GMGW,
       lambda v: v.s("solvers.gmg_poisson_apply")),
    _m("solvers.gmg_poisson_apply_calls", "count", "lower", _GMGW,
       lambda v: v.n("solvers.gmg_poisson_apply"), exact=True),
    _m("solvers.unconverged", "count", "lower", _CONVECT,
       lambda v: v.p("solvers.minres", 1), exact=True),
    # fem
    _m("fem.stokes_build_s", "s", "lower", _CONVECT, lambda v: v.s("fem.stokes_build")),
    _m("fem.stokes_matvec_s", "s", "lower", _MATVEC,
       lambda v: v.own("fem.stokes_matvec") + v.own("fem.matfree_apply")),
    _m("fem.stokes_matvec_calls", "count", "lower", _MATVEC,
       lambda v: v.n("fem.matfree_apply"), exact=True),
    _m("fem.stokes_matvec_gflop_per_s", "Gflop/s", "higher", _MATVEC,
       lambda v: _ratio(v.p("fem.matfree_apply", 0) * 1e-9, v.s("fem.matfree_apply"))),
    _m("fem.stokes_matvec_flop_per_byte", "flop/B", "higher", _MATVEC,
       lambda v: _ratio(v.p("fem.matfree_apply", 0), v.p("fem.matfree_apply", 1))),
    _m("fem.assembly_s", "s", "lower", "cycle_s, peak_rss_mb @ convect_amg",
       lambda v: v.own("fem.assembly")),
    _m("fem.assembly_calls", "count", "lower", "cycle_s, peak_rss_mb @ convect_amg",
       lambda v: v.count("assembly_calls"), exact=True),
    _m("fem.advection_build_s", "s", "lower", _CONVECT, lambda v: v.s("fem.advection_build")),
    _m("fem.advection_advance_s", "s", "lower", _CONVECT,
       lambda v: v.s("fem.advection_advance")),
    _m("fem.advection_steps", "count", "lower", _CONVECT,
       lambda v: v.p("fem.advection_advance", 0), exact=True),
    _m("fem.paradvection_build_s", "s", "lower", _AMR,
       lambda v: v.s("fem.paradvection_build")),
    _m("fem.paradvection_advance_s", "s", "lower", _AMR,
       lambda v: v.s("fem.paradvection_advance")),
    # amr
    _m("amr.adapt_mesh_s", "s", "lower", "rhea.adapt_s @ convect_amg, convect_gmg",
       lambda v: v.s("amr.adapt_mesh")),
    _m("amr.mark_s", "s", "lower", _AMR, lambda v: v.s("amr.mark")),
    _m("amr.pipeline_adapt_s", "s", "lower", _AMR, lambda v: v.s("amr.pipeline_adapt")),
    _m("amr.pipeline_advance_s", "s", "lower", _AMR, lambda v: v.s("amr.pipeline_advance")),
    _m("amr.pipeline_unattributed_s", "s", "lower", _AMR,
       lambda v: v.own("amr.pipeline_adapt") + v.own("amr.pipeline_advance")),
    _m("amr.share", "ratio", "lower", _AMR,
       lambda v: _ratio(v.s("amr.pipeline_adapt") + v.s("rhea.adapt"), v.cycle_s_sum)),
    _m("amr.elements_refined", "count", "lower", _AMR,
       lambda v: v.p("amr.pipeline_adapt", 0) + v.p("rhea.adapt", 0), exact=True),
    _m("amr.elements_coarsened", "count", "lower", _AMR,
       lambda v: v.p("amr.pipeline_adapt", 1) + v.p("rhea.adapt", 1), exact=True),
    _m("amr.balance_added", "count", "lower", _AMR,
       lambda v: v.p("amr.pipeline_adapt", 2) + v.p("rhea.adapt", 2), exact=True),
    # octree
    _m("octree.new_tree_s", "s", "lower", _AMR, lambda v: v.s("octree.new_tree")),
    _m("octree.coarsen_s", "s", "lower", _AMR, lambda v: v.s("octree.coarsen")),
    _m("octree.refine_s", "s", "lower", _AMR, lambda v: v.s("octree.refine")),
    _m("octree.balance_s", "s", "lower", _AMR, lambda v: v.s("octree.balance")),
    _m("octree.balance_collectives", "count", "lower", _AMR,
       lambda v: v.tracer.count_under("octree.balance", "parallel.", "timed"), exact=True),
    _m("octree.partition_s", "s", "lower", _AMR, lambda v: v.s("octree.partition")),
    _m("octree.partition_markers_s", "s", "lower", _AMR,
       lambda v: v.s("octree.partition_markers")),
    # mesh
    _m("mesh.extract_s", "s", "lower", "rhea.adapt_s @ convect_amg, convect_gmg",
       lambda v: v.s("mesh.extract")),
    _m("mesh.extract_par_s", "s", "lower", _AMR, lambda v: v.s("mesh.extract_par")),
    _m("mesh.ghost_s", "s", "lower", _AMR, lambda v: v.s("mesh.ghost")),
    _m("mesh.interpolate_s", "s", "lower", _AMR, lambda v: v.s("mesh.interpolate")),
    _m("mesh.opcache_hits", "count", "higher", _CACHE,
       lambda v: v.count("opcache_hits"), exact=True),
    _m("mesh.opcache_misses", "count", "lower", _CACHE,
       lambda v: v.count("opcache_misses"), exact=True),
    _m("mesh.opcache_hit_ratio", "ratio", "higher", _CACHE,
       lambda v: _ratio(v.count("opcache_hits"),
                        v.count("opcache_hits") + v.count("opcache_misses")), exact=True),
    # parallel
    _m("parallel.collective_calls", "count", "lower", _AMR,
       lambda v: v.count("collective_calls"), exact=True),
    _m("parallel.collective_bytes", "B", "lower", _AMR,
       lambda v: v.count("collective_bytes"), exact=True),
    _m("parallel.p2p_messages", "count", "lower", _AMR,
       lambda v: v.count("p2p_messages"), exact=True),
    _m("parallel.p2p_bytes", "B", "lower", _AMR,
       lambda v: v.count("p2p_bytes"), exact=True),
    _m("parallel.collective_calls_all", "count", "lower", _AMR,
       lambda v: v.count("collective_calls_all"), exact=True),
    _m("parallel.bytes_all", "B", "lower", _AMR, lambda v: v.count("bytes_all"), exact=True),
    _m("parallel.collective_s", "s", "lower", _AMR,
       lambda v: max(v.per_rank_collective_s(), default=0.0)),
    _m("parallel.barrier_wait_s", "s", "lower", _AMR, lambda v: v.barrier_wait_s()),
    _m("parallel.rank_imbalance", "ratio", "lower", _AMR, _imbalance),
    _m("parallel.spmd_launch_s", "s", "lower", "setup_s @ amr_front_p2",
       lambda v: v.count("spmd_launch_s")),
    _m("parallel.efficiency_p2", "ratio", "higher", _AMR,
       lambda v: v.count("efficiency_p2")),
    # checkpoint
    _m("checkpoint.save_s", "s", "lower", _NONE, lambda v: v.s("checkpoint.save", "post")),
    _m("checkpoint.restore_s", "s", "lower", _NONE,
       lambda v: v.s("checkpoint.restore", "post")),
    _m("checkpoint.bytes", "B", "lower", _NONE,
       lambda v: v.count("checkpoint_bytes"), exact=True),
    _m("checkpoint.bytes_per_element", "B/elem", "lower", _NONE,
       lambda v: _ratio(v.count("checkpoint_bytes"), v.count("checkpoint_elements")),
       exact=True),
    # fleet
    _m("fleet.admit_s", "s", "lower", "setup_s @ fleet_sweep",
       lambda v: v.s("fleet.admit", "setup")),
    _m("fleet.quantum_s", "s", "lower", _FLEET, lambda v: v.s("fleet.step")),
    _m("fleet.quanta", "count", "lower", _FLEET, lambda v: v.n("fleet.step"), exact=True),
    _m("fleet.batch_solve_s", "s", "lower", _FLEET, lambda v: v.s("fleet.batch_solve")),
    _m("fleet.batch_advance_s", "s", "lower", _FLEET, lambda v: v.s("fleet.batch_advance")),
    _m("fleet.batched_minres_s", "s", "lower", _FLEET, lambda v: v.s("fleet.batched_minres")),
    _m("fleet.batched_minres_iters", "count", "lower", _FLEET,
       lambda v: v.p("fleet.batched_minres", 0), exact=True),
    _m("fleet.scheduler_s", "s", "lower", _FLEET, lambda v: v.s("fleet.scheduler")),
    _m("fleet.meshes_built", "count", "lower", "setup_s, peak_rss_mb @ fleet_sweep",
       lambda v: v.count("meshes_built"), exact=True),
    _m("fleet.meshes_shared", "count", "higher", "setup_s, peak_rss_mb @ fleet_sweep",
       lambda v: v.count("meshes_shared"), exact=True),
    _m("fleet.jobs_failed", "count", "lower", _FLEET,
       lambda v: v.count("jobs_failed"), exact=True),
    # forest
    _m("forest.refine_s", "s", "lower", _DG, lambda v: v.own("forest.refine")),
    _m("forest.coarsen_s", "s", "lower", _DG, lambda v: v.s("forest.coarsen")),
    _m("forest.balance_s", "s", "lower", _DG, lambda v: v.s("forest.balance")),
    _m("forest.balance_added", "count", "lower", _DG,
       lambda v: v.p("forest.balance", 0), exact=True),
    _m("forest.partition_s", "s", "lower", _DG, lambda v: v.s("forest.partition")),
    # mangll
    _m("mangll.setup_s", "s", "lower", _DG + "; setup_s @ dg_sphere",
       lambda v: v.s("mangll.setup")),
    _m("mangll.transfer_s", "s", "lower", _DG, lambda v: v.s("mangll.transfer")),
    _m("mangll.advance_s", "s", "lower", _DG, lambda v: v.s("mangll.advance")),
    _m("mangll.rate_s", "s", "lower", _DG, lambda v: v.s("mangll.rate")),
    _m("mangll.rate_calls", "count", "lower", _DG, lambda v: v.n("mangll.rate"), exact=True),
    _m("mangll.rk_steps", "count", "lower", _DG,
       lambda v: v.p("mangll.advance", 0), exact=True),
    _m("mangll.dof", "count", "lower", _DG,
       lambda v: _ratio(v.p("mangll.advance", 1), v.p("mangll.advance", 0)), exact=True),
    # the measurement itself
    _m("trace.overhead_frac", "ratio", "lower", _NONE,
       lambda v: _ratio(v.tracer.n_spans("timed") * v.tracer.span_cost_s(), v.wall_s)),
    _m("trace.unattributed_s", "s", "lower", _NONE, lambda v: v.unattributed_s()),
    _m("trace.unresolved", "count", "lower", _NONE,
       lambda v: len(v.tracer.unresolved), exact=True),
    _m("trace.spans", "count", "lower", _NONE, lambda v: v.tracer.n_spans(), exact=True),
]


def layer_shares(view: View) -> dict:
    """Summed span self time per layer as a share of the traced wall
    (self time, so nested spans are not counted twice)."""
    shares = {
        layer: _ratio(view.layer_self_s(layer), view.wall_s) for layer in LAYERS
    }
    shares["unattributed"] = _ratio(view.unattributed_s(), view.wall_s)
    return shares
