"""The five workloads: seeded input generation, set-up, one closed-loop
cycle, counters and invariant checks.

Every workload is driven through the stable public drivers of ``repro``
with default arguments (the one exception, the GMG preconditioner, defines
``convect_gmg``).  The seed shapes the generated inputs only; the program
never sees it.  One client, closed loop: the next cycle starts when the
previous one returns.

A cycle record is ``{seconds, elements, scenarios, dof_steps, ops, failed,
diag}``; ``diag`` holds the physics diagnostics that ``reference.json``
pins for seed 0.

A run repeats the whole closed loop (set-up, then the timed cycles) several
times from scratch.  The program is deterministic, so cycle ``i`` does the
same work in every replica and the replicas differ only by what else the
host was doing.  That only ever adds time, so the time of cycle ``i`` (and
of the set-up) is that of its fastest replica.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import amr, checkpoint, fleet, forest, mangll, mesh, octree, parallel, rhea
from repro.fem import assembly_counts

from .layers import CYCLE_SPAN


@dataclass
class Run:
    """What one run of one workload produced.  ``replicas[k][i]`` is the
    record of timed cycle ``i`` in replica ``k``; ``cycles[i]`` is the one
    with the fewest seconds, ``wall_s`` their sum; ``cold`` and ``counters``
    are the last replica's."""

    setup_samples: list
    replicas: list
    cold: list
    counters: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # invariant name -> passed
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.cycles = [min(same, key=lambda r: r["seconds"]) for same in zip(*self.replicas)]
        self.wall_s = sum(r["seconds"] for r in self.cycles)
        work = [[(r["elements"], r["diag"]) for r in rep] for rep in self.replicas]
        self.checks["replicas_agree"] = all(w == work[0] for w in work)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def closed_loop(setup, cycle, counters, n_replicas, n_cycles, tracer, sync=lambda: None):
    """``n_replicas`` times: set up from scratch, then run ``n_cycles``
    timed cycles.  ``sync`` brackets every timed interval (the barrier of an
    SPMD workload).  Returns the last replica's state and the ``Run``."""
    setup_samples, replicas, state = [], [], None
    for _ in range(n_replicas):
        state = None  # release the previous replica before timing the next
        gc.collect()
        sync()
        t0 = time.perf_counter()
        with tracer.section("setup"):
            state, cold = setup()
        sync()
        setup_samples.append(time.perf_counter() - t0)
        before = counters(state)
        cycles = []
        with tracer.section("timed"):
            sync()
            for i in range(n_cycles):
                t0 = time.perf_counter()
                with tracer.span(CYCLE_SPAN, cycle=i):
                    rec = cycle(state)
                sync()
                rec["seconds"] = time.perf_counter() - t0
                cycles.append(rec)
        after = counters(state)
        replicas.append(cycles)
    delta = {k: after[k] - before[k] for k in after}
    return state, Run(setup_samples, replicas, cold, delta)


def _shared_counters() -> dict:
    cache = mesh.cache_stats()
    return {
        "opcache_hits": cache["hits"],
        "opcache_misses": cache["misses"],
        "assembly_calls": sum(assembly_counts().values()),
    }


# -- convect_amg / convect_gmg ---------------------------------------------


class Convect:
    """Serial adaptive convection with plastic yielding (paper Sec. VI)."""

    replicas = 3
    cycles_per_10s = 1
    result_tol = 1e-3

    def __init__(self, name: str, why: str, **config):
        self.name, self.why, self.config = name, why, config

    def inputs(self, seed: int, smoke: bool) -> dict:
        rng = np.random.default_rng(seed)
        jitter = lambda width: float(rng.uniform(-width, width))  # noqa: E731
        size = (
            dict(initial_level=2, max_level=4, target_elements=300)
            if smoke else dict(initial_level=3, max_level=6, target_elements=6000)
        )
        return dict(
            slab_x=0.5 + jitter(0.005), slab_amp=0.45 + jitter(0.005),
            plume_x=0.25 + jitter(0.005), plume_amp=0.35 + jitter(0.005), **size,
        )

    def run(self, inp: dict, n_replicas: int, n_cycles: int, tracer) -> Run:
        def t_init(coords):
            x, z = coords[:, 0] / 8.0, coords[:, 2]
            slab = -inp["slab_amp"] * np.exp(-(((x - inp["slab_x"]) / 0.06) ** 2)) * (z > 0.55)
            plume = inp["plume_amp"] * np.exp(
                -(((x - inp["plume_x"]) / 0.1) ** 2 + ((z - 0.15) / 0.15) ** 2)
            )
            return np.clip(1.0 - z + slab + plume, 0.0, 1.0)

        cfg = rhea.RheaConfig(
            Ra=1e5, domain=(8.0, 4.0, 1.0),
            viscosity=rhea.YieldingViscosity(sigma_y=500.0),
            initial_level=inp["initial_level"], min_level=2, max_level=inp["max_level"],
            adapt_every=4, picard_iterations=2, stokes_tol=1e-5,
            target_elements=inp["target_elements"], viscosity_weight=0.8,
            yield_weight=1.5, **self.config,
        )

        def cycle(sim):
            sim.run(1)
            d = sim.history[-1]
            diag = {"vrms": d.vrms, "nusselt": d.nusselt, "mean_T": d.mean_T}
            capped = d.minres_iterations >= cfg.stokes_maxiter  # a Picard pass hit the cap
            return dict(
                elements=d.n_elements, scenarios=1, ops=1,
                dof_steps=sim.mesh.n_independent * cfg.adapt_every,
                failed=int(capped or not _finite(diag.values())), diag=diag,
                picard=d.picard_iterations,
            )

        def setup():
            sim = rhea.MantleConvection(cfg, T_init=t_init)
            sim.adapt_initial(rounds=2)
            return sim, [cycle(sim)]

        def counters(sim):
            c = sim.cache_stats()
            return {"prec_builds": c["prec_builds"], "prec_reuses": c["prec_reuses"],
                    **_shared_counters()}

        sim, run = closed_loop(setup, cycle, counters, n_replicas, n_cycles, tracer)
        run.counters["picard_passes"] = sum(r["picard"] for r in run.cycles)
        tree = sim.mesh.tree
        run.checks["tree_complete"] = tree.is_complete()
        run.checks["tree_balanced"] = octree.is_balanced(tree, "corner")
        return run


# -- amr_front_p2 -----------------------------------------------------------


class AmrFront:
    """The distributed AMR pipeline on two thread ranks (paper Sec. V)."""

    name = "amr_front_p2"
    why = ("Table IV pipeline: octree balance/partition, parallel mesh extraction, "
           "ghost exchange, SUPG advection and collectives on P=2; no Stokes solve")
    #: the noisiest workload (two rank threads meet at every collective,
    #: cycles under a second) with the cheapest set-up: more replicas and
    #: more cycles than the others
    replicas = 4
    cycles_per_10s = 2
    result_tol = 1e-3
    #: the element count may move within MARKELEMENTS' own tolerance band
    diag_tol = {"elements": 0.05}
    ranks = 2
    ramp_adapts = 4

    def inputs(self, seed: int, smoke: bool) -> dict:
        rng = np.random.default_rng(seed)
        centre = np.array([0.5, 0.35, 0.5]) + rng.uniform(-0.003, 0.003, 3)
        size = dict(max_level=5, target=1500) if smoke else dict(max_level=8, target=60000)
        return dict(front_center=tuple(float(c) for c in centre), **size)

    def _pipeline_parts(self, inp):
        workload = amr.RotatingFrontWorkload(
            front_center=inp["front_center"], velocity=amr.rotating_velocity(scale=3.0)
        )
        target = inp["target"]

        def cycle(pipe):
            stats = pipe.adapt(target)
            steps = pipe.advance_time(0.05, cfl=0.5)
            hist = stats.level_histogram
            volume = sum(n * 8.0 ** -level for level, n in hist.items())
            return dict(
                elements=stats.n_after, scenarios=1, ops=1,
                dof_steps=pipe.pm.n_global * steps,
                failed=int(not np.isfinite(pipe.T).all()),
                diag={"elements": stats.n_after, "volume": volume},
            )

        def make_setup(comm):
            def setup():
                pipe = amr.ParAmrPipeline(
                    comm, workload=workload, coarse_level=2, max_level=inp["max_level"]
                )
                for _ in range(self.ramp_adapts):
                    pipe.adapt(target)
                return pipe, [cycle(pipe)]
            return setup

        return workload, cycle, make_setup

    @staticmethod
    def _field_digest(pipe) -> str | None:
        """Digest of the element-corner temperature in global SFC order
        (independent of how the elements are partitioned)."""
        pm = pipe.pm
        corner = pm.mesh.expand(pipe.T)[pm.mesh.element_nodes[pm.owned_elements]]
        parts = pipe.comm.gather(corner, root=0)
        if parts is None:
            return None
        return hashlib.blake2b(np.concatenate(parts).tobytes(), digest_size=16).hexdigest()

    def run(self, inp: dict, n_replicas: int, n_cycles: int, tracer) -> Run:
        workload, cycle, make_setup = self._pipeline_parts(inp)
        ckpt_root = tempfile.mkdtemp(prefix=".bench_ckpt_", dir=os.getcwd())

        def comm_counters(comm):
            s = comm.stats
            return {
                "collective_calls": s.total_collective_calls,
                "collective_bytes": sum(s.collective_bytes.values()),
                "p2p_messages": s.p2p_messages, "p2p_bytes": s.p2p_bytes,
                "bytes": s.total_bytes, **_shared_counters(),
            }

        def kernel(comm):
            tracer.bind_rank(comm.rank)
            t0 = time.perf_counter()
            pipe, run = closed_loop(
                make_setup(comm), cycle, lambda pipe: comm_counters(comm),
                n_replicas, n_cycles, tracer, sync=comm.barrier,
            )
            with tracer.section("post"):
                n_saved, digest = pipe.pt.global_count(), self._field_digest(pipe)
                path = checkpoint.save_pipeline(pipe, ckpt_root)
                back = checkpoint.restore_pipeline(comm, path, workload=workload)
                restored = (back.pt.global_count(), self._field_digest(back))
                tree = octree.gather_tree(pipe.pt)
            if comm.rank == 0:
                run.checks["restore_reproduces_state"] = restored == (n_saved, digest)
                run.checks["tree_complete"] = tree.is_complete()
                run.checks["tree_balanced"] = octree.is_balanced(tree, "corner")
                run.counters["checkpoint_elements"] = n_saved
                run.counters["checkpoint_bytes"] = sum(
                    os.path.getsize(os.path.join(d, f))
                    for d, _, files in os.walk(path) for f in files
                )
            run.notes["kernel_s"] = time.perf_counter() - t0
            return run

        try:
            t0 = time.perf_counter()
            runs, _ = parallel.run_spmd_with_comms(self.ranks, kernel)
            launch_wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(ckpt_root, ignore_errors=True)
        run = runs[0]
        run.counters["spmd_launch_s"] = launch_wall - max(r.notes["kernel_s"] for r in runs)
        run.counters["collective_calls_all"] = sum(r.counters["collective_calls"] for r in runs)
        run.counters["bytes_all"] = sum(r.counters["bytes"] for r in runs)
        if tracer.enabled:
            run.counters["efficiency_p2"] = self._efficiency(cycle, make_setup, run, tracer)
        return run

    def _efficiency(self, cycle, make_setup, run_p2: Run, tracer, steady_cycles: int = 4):
        """P=1 ``cycle_s`` / (2 x P=2 ``cycle_s``) from extra P=1 steady
        cycles (traced pass only; recorded under the ``post`` section)."""

        def kernel(comm):
            with tracer.section("post"):
                pipe, _ = make_setup(comm)()
                times = []
                for _ in range(min(steady_cycles, len(run_p2.cycles))):
                    t0 = time.perf_counter()
                    cycle(pipe)
                    times.append(time.perf_counter() - t0)
            return float(np.median(times))

        (p1_cycle_s,), _ = parallel.run_spmd_with_comms(1, kernel)
        p2_cycle_s = float(np.median([r["seconds"] for r in run_p2.cycles[:steady_cycles]]))
        return p1_cycle_s / (self.ranks * p2_cycle_s)


# -- fleet_sweep ------------------------------------------------------------


class FleetSweep:
    """64 scenarios advanced in lockstep on the batch axis (paper Sec. VI
    parameter studies)."""

    name = "fleet_sweep"
    why = ("fleet service + the nb=64 batch axis of the matrix-free operators and "
           "batched MINRES; no adaptation, no communication")
    replicas = 3
    cycles_per_10s = 1
    result_tol = 1e-3
    n_jobs = 64
    serial_tol = 1e-3

    def inputs(self, seed: int, smoke: bool) -> dict:
        rng = np.random.default_rng(seed)
        n = 6 if smoke else self.n_jobs
        ra_scale = 1.0 + rng.uniform(-0.01, 0.01)
        e_shift = rng.uniform(-0.02, 0.02)
        sigma_y = 5.0 * (1.0 + rng.uniform(-0.02, 0.02))
        seeds = rng.integers(0, 1000, n)
        jobs = []
        for i in range(n):
            yielding = i % 4 == 3
            jobs.append(dict(
                job_id=f"job{i:02d}", tenant=f"tenant{i % 3}",
                Ra=float(1e4 * (1 + i % 8) * ra_scale),
                viscosity_law="yielding" if yielding else "arrhenius",
                activation_energy=float(3.0 + 0.5 * (i % 5) + e_shift),
                yield_stress=float(sigma_y) if yielding else None,
                initial_level=2 if smoke else 3, seed=int(seeds[i]),
            ))
        return dict(jobs=jobs)

    def run(self, inp: dict, n_replicas: int, n_cycles: int, tracer) -> Run:
        specs = [fleet.ScenarioSpec(cycles=1 + n_cycles, **job) for job in inp["jobs"]]

        def record(svc):
            sims = [svc.jobs[s.job_id].sim for s in specs]
            last = [sim.history[-1] for sim in sims]
            diag = {
                "vrms": [d.vrms for d in last], "nusselt": [d.nusselt for d in last],
                "mean_T": [d.mean_T for d in last],
            }
            failed = sum(
                d.minres_iterations >= spec.stokes_maxiter
                or not _finite((d.vrms, d.nusselt, d.mean_T))
                for d, spec in zip(last, specs)
            )
            m = sims[0].mesh
            return dict(
                elements=len(specs) * m.n_elements, scenarios=len(specs), ops=len(specs),
                dof_steps=len(specs) * m.n_independent * specs[0].adapt_every,
                failed=int(failed), diag=diag,
            )

        def cycle(svc):
            if not svc.step():
                raise RuntimeError("fleet drained before the timed quanta were served")
            return record(svc)

        def setup():
            svc = fleet.FleetService()
            for spec in specs:
                svc.admit(spec)
            svc.run(max_quanta=1)
            return svc, [record(svc)]

        svc, run = closed_loop(
            setup, cycle, lambda svc: _shared_counters(), n_replicas, n_cycles, tracer
        )
        # the registry interns meshes at admission, before the timed section
        run.counters["meshes_built"] = svc.registry.built
        run.counters["meshes_shared"] = svc.registry.shared
        not_done = sum(status != "done" for status in svc.statuses().values())
        run.counters["jobs_failed"] = not_done
        if not_done:
            run.cycles[-1]["failed"] = max(run.cycles[-1]["failed"], not_done)
        with tracer.section("post"):
            spec = specs[0]
            serial = rhea.MantleConvection(spec.to_config(), spec.t_init())
            serial.run(spec.cycles, adapt=False)
        batched = svc.jobs[spec.job_id].sim.history
        dev = max(
            abs(getattr(b, k) - getattr(s, k)) / abs(getattr(s, k))
            for b, s in zip(batched, serial.history) for k in ("vrms", "nusselt", "mean_T")
        )
        run.notes["fleet_vs_serial_rel_dev"] = dev
        run.checks["fleet_matches_serial"] = dev <= self.serial_tol
        return run


# -- dg_sphere --------------------------------------------------------------


class DgSphere:
    """Adaptive DG advection on the 24-tree cubed sphere (paper Sec. VII)."""

    name = "dg_sphere"
    why = ("the only workload where forest (refine/coarsen/balance/partition) and "
           "mangll (DG setup, transfer, RK advance) do the work; no Stokes, no comm")
    replicas = 3
    cycles_per_10s = 1
    result_tol = 5e-3
    order = 3
    growth_cycles = 3
    mass_drift_tol = 3e-2

    def inputs(self, seed: int, smoke: bool) -> dict:
        rng = np.random.default_rng(seed)
        c = np.array([0.9, 0.0, 0.3]) + rng.uniform(-0.01, 0.01, 3)
        c = 0.8 * c / np.linalg.norm(c)
        return dict(centre=tuple(float(x) for x in c), max_level=2 if smoke else 3,
                    t_span=0.05 if smoke else 0.25)

    def run(self, inp: dict, n_replicas: int, n_cycles: int, tracer) -> Run:
        wind = mangll.solid_body_rotation([0.0, 0.0, 1.0])
        conn = forest.cubed_sphere_connectivity(r_inner=0.6, r_outer=1.0)

        def cycle(state):
            f, dg, u = state["forest"], state["dg"], state["u"]
            ue = u.reshape(dg.ne, dg.n3)
            ind = ue.max(axis=1) - ue.min(axis=1)
            refine = (ind > 0.25 * ind.max()) & (f.flat_levels() < inp["max_level"])
            # leaves of refined parents are never coarsening candidates
            children = np.where(refine, 8, 1)
            coarsen = np.repeat((ind < 0.02 * ind.max()) & ~refine, children)
            f2, _ = f.refine(refine).coarsen(coarsen)
            f2, _ = f2.balance()
            dg2 = mangll.DGAdvection(f2, self.order, wind)
            u = mangll.dg_transfer(dg, u, dg2)
            steps = max(int(inp["t_span"] / dg2.cfl_dt(0.3)), 1)
            u = dg2.advance(u, inp["t_span"] / steps, steps)
            f2.partition_assignments(64)
            state.update(forest=f2, dg=dg2, u=u)
            mass = dg2.total_mass(u)
            return dict(
                elements=len(f2), scenarios=1, ops=1, dof_steps=dg2.n_dof * steps,
                failed=int(not math.isfinite(mass)), diag={"mass": mass},
            )

        def setup():
            f = forest.Forest.uniform(conn, 1)
            dg = mangll.DGAdvection(f, self.order, wind)
            u = np.exp(-np.sum((dg.nodes() - np.array(inp["centre"])) ** 2, axis=1) / 0.02)
            state = dict(forest=f, dg=dg, u=u, mass0=dg.total_mass(u))
            return state, [cycle(state) for _ in range(self.growth_cycles)]

        state, run = closed_loop(
            setup, cycle, lambda s: _shared_counters(), n_replicas, n_cycles, tracer
        )
        f = state["forest"]
        drift = abs(run.cycles[-1]["diag"]["mass"] / state["mass0"] - 1.0)
        run.notes["mass_drift"] = drift
        run.checks["mass_conserved"] = drift <= self.mass_drift_tol
        run.checks["tree_complete"] = f.is_complete()
        run.checks["tree_balanced"] = f.is_balanced()
        return run


WORKLOADS = [
    Convect("convect_amg",
            "the paper's headline run: Stokes is ~97% of wall (AMG setup + MINRES), so "
            "solvers and fem do the work while octree, mesh and parallel do almost none"),
    Convect("convect_gmg",
            "identical inputs through the matrix-free GMG preconditioner: thousands of "
            "small scalar-Poisson applies per cycle and no assembled multigrid hierarchy",
            stokes_preconditioner="gmg"),
    AmrFront(),
    FleetSweep(),
    DgSphere(),
]
BY_NAME = {w.name: w for w in WORKLOADS}
