"""Setup-amortization regression mini-suite (BENCH_tentpole.json).

Measures the PR-1 optimizations against an honest pre-PR baseline run in
the same process:

- ``stokes_repeat``: repeated Stokes solves on a fixed mesh (3 Picard
  passes x 5 time steps).  The baseline arm disables the operator cache,
  the lagged preconditioner, and MINRES warm starts, and restores the
  per-sweep triangular smoother and sequential aggregation — the seed
  code path.  A third arm (cache + warm start, rebuild-every-pass
  preconditioner) anchors the lagged-preconditioner iteration-inflation
  check.
- ``convection_mini``: a short adaptive convection run exercising cache
  invalidation; records operator-cache hit/miss and preconditioner
  build/reuse counters.
- ``dg_cubed_sphere``: DG setup on the cubed-sphere shell, batched face
  construction vs. the per-face loop, plus one RK step.
- ``amg_setup``: AMG setup on a model Poisson operator, vectorized vs.
  sequential aggregation.

A third suite (``--suite matvec``, BENCH_matvec.json) measures the PR-4
matrix-free apply engine:

- ``saddle_apply``: per-iteration saddle-operator cost on a *fresh* mesh
  (the adaptive-workload reality: the assembled arm pays block assembly
  before its first apply, the tensor arm only builds gathers), raw
  warm-cache apply times, flop ratios, and tensor/matrix parity.
- ``stokes_e2e``: full MINRES solves under both variants; residual
  histories must track to ~1e-10 of the initial residual.
- ``advection_rate``: SUPG rate-operator apply, tensor vs assembled.
- ``kernel_crossover``: the Section VII matrix-vs-tensor derivative
  kernel comparison (measured throughput per order + the modeled-Ranger
  crossover order).

A fifth suite (``--suite amr``, BENCH_amr.json) measures the recursive
forest algorithms against their search oracles on the AMR hot path:

- ``amr_kernels``: ghost construction, 2:1 balance, and mesh extraction
  on a random adaptive distributed tree — wall seconds and collective
  counts per algorithm, bitwise-equality flags, and the balance exchange
  count (the low-collective variant must converge in <= 2 exchanges).
- ``amr_pipeline``: the full SPMD adaptation pipeline run search-vs-
  recursive end to end; records both walls and AMR fractions.

A second suite (``--suite checkpoint``, BENCH_checkpoint.json) measures
the overhead of the PR-3 checkpoint subsystem:

- ``checkpoint_overhead``: the SPMD AMR pipeline with a snapshot every
  cycle; records the snapshot wall-fraction per cycle, shard bytes per
  element, and the wall time of a restore onto a different rank count.

A sixth suite (``--suite fleet``, BENCH_fleet.json) measures the PR-8
multi-tenant batched scenario service:

- ``fleet_throughput``: N same-structure scenarios run through the
  fleet's lockstep batch groups vs. the honest serial one-scenario
  loop (per-job mesh, per-job AMG, per-job MINRES); records the
  aggregate throughput ratio (target: >= 10x at N >= 16) and the
  batched-vs-serial per-job diagnostics deviation.
- ``fleet_preempt``: budget exhaustion mid-fleet -> per-job snapshots ->
  resume -> finish; the resumed per-job diagnostics must reproduce the
  uninterrupted run.

A fourth suite (``--suite obs``, BENCH_obs.json) exercises the
:mod:`repro.obs` observability layer:

- ``pipeline_phases``: the 4-rank AMR pipeline run twice — timer bound
  vs. unbound — recording the enabled-timer overhead fraction, the
  Table IV-style per-phase report (AMR / Stokes / advection fractions,
  modeled comm-vs-compute split per core count), and writing the
  Chrome-trace artifact (``obs_trace.json``).
- ``convection_phases``: a serial convection cycle with
  ``RheaConfig(observe=True)``; pins the solver counters (MINRES
  iterations, AMG setups, cache hits) flowing through the phase tree.
- ``disabled_overhead``: per-call cost of ``obs.phase``/``obs.counter``
  with no timer bound (the hot-path guarantee) and with one bound.

``--smoke`` shrinks every scenario so CI can validate JSON emission in
seconds; timings in smoke mode are not meaningful and are not gated.

Run: ``PYTHONPATH=src python -m repro.perf.regress [--suite NAME]
[--smoke] [--out PATH]``
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np
import scipy.sparse as sp

from ..forest import Forest, cubed_sphere_connectivity
from ..mangll import DGAdvection, solid_body_rotation
from ..mesh.opcache import cache_stats, reset_cache_stats
from ..rhea import MantleConvection, RheaConfig
from ..solvers.amg import (
    SmoothedAggregationAMG,
    aggregate,
    aggregate_reference,
    legacy_aggregation,
    legacy_smoother,
    strength_graph,
)

__all__ = [
    "run_suite",
    "run_checkpoint_suite",
    "run_matvec_suite",
    "run_obs_suite",
    "run_amr_suite",
    "run_fleet_suite",
    "run_multiproc_suite",
    "main",
]


def _stokes_arm(config: RheaConfig, level: int, n_solves: int, adv_steps: int):
    """One repeated-Stokes arm: fixed mesh, alternating Stokes solve and
    temperature advance (so the viscosity drifts realistically)."""
    from ..octree import LinearOctree

    sim = MantleConvection(config, tree=LinearOctree.uniform(level))
    t0 = time.perf_counter()
    iters = 0
    for _ in range(n_solves):
        stats = sim.solve_stokes()
        iters += stats["minres_iterations"]
        sim.advance_temperature(adv_steps)
    wall = time.perf_counter() - t0
    return wall, iters, sim.vrms()


def bench_stokes_repeat(smoke: bool) -> dict:
    """Repeated Stokes solves with and without the PR-1 setup
    amortizations (operator cache, lagged preconditioner, warm starts).

    Returns baseline/optimized wall seconds, the speedup, MINRES
    iteration counts (baseline, no-lag, lagged), the vrms drift between
    the arms, and operator-cache hit/miss totals.

    Example::

        r = bench_stokes_repeat(smoke=True)
        assert r["speedup"] > 0 and r["vrms_rel_diff"] < 1e-6
    """
    level = 2 if smoke else 3
    n_solves = 2 if smoke else 5
    adv_steps = 1 if smoke else 2
    picard = 3

    def cfg(**kw):
        return RheaConfig(picard_iterations=picard, adapt_every=adv_steps, **kw)

    # pre-PR baseline: no cache, rebuild preconditioner every pass, cold
    # starts, per-sweep triangular solves, sequential aggregation
    reset_cache_stats()
    with legacy_smoother(), legacy_aggregation():
        base_s, base_it, base_vrms = _stokes_arm(
            cfg(cache_operators=False, prec_lag_rtol=None, warm_start=False),
            level, n_solves, adv_steps,
        )
    # iteration reference: all optimizations except preconditioner lagging
    _, nolag_it, _ = _stokes_arm(cfg(prec_lag_rtol=None), level, n_solves, adv_steps)
    # full optimized path (PR defaults)
    reset_cache_stats()
    opt_s, opt_it, opt_vrms = _stokes_arm(cfg(), level, n_solves, adv_steps)
    stats = cache_stats()
    return {
        "n_solves": n_solves,
        "picard_iterations": picard,
        "baseline_s": base_s,
        "optimized_s": opt_s,
        "speedup": base_s / opt_s,
        "minres_iters_baseline": base_it,
        "minres_iters_nolag": nolag_it,
        "minres_iters_lagged": opt_it,
        "lag_iter_ratio": opt_it / max(nolag_it, 1),
        "vrms_baseline": base_vrms,
        "vrms_optimized": opt_vrms,
        "vrms_rel_diff": abs(opt_vrms - base_vrms) / max(abs(base_vrms), 1e-30),
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
    }


def bench_convection_mini(smoke: bool) -> dict:
    """A small end-to-end convection run (AMR + Stokes + advection)
    timing the whole :meth:`MantleConvection.run` loop.

    Returns wall seconds, the final element count, and the
    operator-cache statistics accumulated over the run.
    """
    cfg = RheaConfig(
        initial_level=2,
        max_level=3 if smoke else 4,
        adapt_every=2,
        picard_iterations=2,
    )
    sim = MantleConvection(cfg)
    t0 = time.perf_counter()
    sim.run(1 if smoke else 3, adapt=True)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "n_elements": sim.mesh.n_elements}
    out.update(sim.cache_stats())
    return out


def bench_dg_cubed_sphere(smoke: bool) -> dict:
    """DG advection setup on the cubed-sphere shell: per-face loop vs
    batched face assembly.

    Returns setup seconds for both paths, the speedup, a bitwise
    equality check of the resulting rate evaluations, and the cost of
    one advection step.
    """
    conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
    forest = Forest.uniform(conn, 0 if smoke else 1)
    if not smoke:
        mask = np.zeros(len(forest), dtype=bool)
        mask[::7] = True
        forest, _ = forest.refine(mask).balance()
    p = 2 if smoke else 3
    wind = solid_body_rotation()
    t0 = time.perf_counter()
    dg_loop = DGAdvection(forest, p=p, velocity=wind, batch_faces=False)
    loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    dg = DGAdvection(forest, p=p, velocity=wind, batch_faces=True)
    bat_s = time.perf_counter() - t0
    u = dg.project(lambda x: np.exp(-20.0 * ((x[:, 0] - 0.7) ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2)))
    same = np.array_equal(dg_loop.rate(u), dg.rate(u))
    dt = dg.cfl_dt()
    t0 = time.perf_counter()
    dg.advance(u, dt, 1)
    step_s = time.perf_counter() - t0
    return {
        "n_elements": dg.ne,
        "p": p,
        "setup_loop_s": loop_s,
        "setup_batched_s": bat_s,
        "setup_speedup": loop_s / bat_s,
        "rate_bitwise_equal": bool(same),
        "step_s": step_s,
    }


def bench_amg_setup(smoke: bool) -> dict:
    """AMG setup on a 3-D Poisson matrix: reference (sequential greedy)
    vs vectorized aggregation, and full hierarchy construction with the
    legacy vs current smoother.

    Returns aggregation and setup seconds for both arms, speedups, and
    the aggregate counts (which may differ slightly between algorithms).
    """
    m = 12 if smoke else 24
    I = sp.eye(m)
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    A = sp.csr_matrix(
        sp.kron(sp.kron(T, I), I) + sp.kron(sp.kron(I, T), I) + sp.kron(sp.kron(I, I), T)
    )
    S = strength_graph(A, 0.08)
    t0 = time.perf_counter()
    _, n_ref = aggregate_reference(S)
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, n_vec = aggregate(S)
    vec_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with legacy_aggregation(), legacy_smoother():
        SmoothedAggregationAMG(A)
    setup_ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    SmoothedAggregationAMG(A)
    setup_vec_s = time.perf_counter() - t0
    return {
        "n": A.shape[0],
        "aggregate_reference_s": ref_s,
        "aggregate_vectorized_s": vec_s,
        "aggregate_speedup": ref_s / vec_s,
        "n_agg_reference": int(n_ref),
        "n_agg_vectorized": int(n_vec),
        "setup_reference_s": setup_ref_s,
        "setup_vectorized_s": setup_vec_s,
        "setup_speedup": setup_ref_s / setup_vec_s,
    }


def bench_checkpoint_overhead(smoke: bool) -> dict:
    """SPMD AMR pipeline with a per-cycle snapshot: how much wall time
    does checkpointing add, and how dense is the on-disk format?"""
    import shutil
    import tempfile

    from ..amr import ParAmrPipeline
    from ..checkpoint import load_checkpoint, restore_pipeline, save_pipeline
    from ..parallel import run_spmd

    p = 2
    restore_p = 3  # prove the resharded-restore path in the same run
    cycles = 2 if smoke else 4
    steps = 2
    target = 250 if smoke else 600
    max_level = 4 if smoke else 5
    root = tempfile.mkdtemp(prefix="bench_ckpt_")
    try:

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=max_level)
            compute_s = snapshot_s = 0.0
            for _ in range(cycles):
                t0 = time.perf_counter()
                pipe.adapt(target)
                pipe.advance(steps)
                pipe.cycles_done += 1
                compute_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                save_pipeline(pipe, root, keep=2)
                snapshot_s += time.perf_counter() - t0
            return {
                "compute_s": compute_s,
                "snapshot_s": snapshot_s,
                "n_global": pipe.pt.global_count(),
            }

        outs = run_spmd(p, kernel)
        # the slowest rank sets the wall clock in both phases
        compute_s = max(o["compute_s"] for o in outs)
        snapshot_s = max(o["snapshot_s"] for o in outs)
        n_global = outs[0]["n_global"]

        t0 = time.perf_counter()
        run_spmd(restore_p, lambda comm: (restore_pipeline(comm, root), None)[1])
        restore_s = time.perf_counter() - t0

        manifest, _ = load_checkpoint(root)
        shard_bytes = sum(s.nbytes for s in manifest.shards)
        return {
            "ranks": p,
            "cycles": cycles,
            "n_elements_global": int(n_global),
            "compute_s": compute_s,
            "snapshot_s": snapshot_s,
            "snapshot_s_per_cycle": snapshot_s / cycles,
            "snapshot_fraction": snapshot_s / (compute_s + snapshot_s),
            "shard_bytes_total": int(shard_bytes),
            "shard_bytes_per_element": shard_bytes / n_global,
            "restore_ranks": restore_p,
            "restore_s": restore_s,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _matvec_mesh(level: int, seed: int = 0):
    """Fresh adapted hanging-node mesh (never seen by any operator cache)."""
    from ..mesh import extract_mesh
    from ..octree import LinearOctree, balance

    tree = LinearOctree.uniform(level)
    rng = np.random.default_rng(seed)
    tree = tree.refine(rng.random(len(tree)) < 0.25)
    tree = balance(tree, "corner").tree
    return extract_mesh(tree, (1.0, 1.0, 1.0))


def _matvec_problem(mesh):
    """Layered-viscosity buoyancy problem (smooth enough for MINRES)."""
    z = mesh.element_centers()[:, 2]
    eta = np.exp(4.0 * z)  # ~55x layered viscosity contrast
    c = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 2])
    return eta, bf


def _time_repeat(fn, reps: int) -> float:
    fn()
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def bench_saddle_apply(smoke: bool) -> dict:
    """The gated comparison: per-iteration cost of the saddle operator in
    an adaptive workload (every mesh is fresh, so the assembled arm pays
    sparse assembly before its first apply while the tensor arm only
    builds gathers), plus the honest raw warm-cache apply timings."""
    from ..fem import StokesSystem
    from ..fem.matfree import csr_apply_flops, saddle_apply_flops

    level = 2 if smoke else 3
    reps = 5 if smoke else 50
    k = 10 if smoke else 100  # MINRES applies per fresh mesh (~1 solve)

    # matrix arm on a fresh mesh: setup = full block assembly
    mesh_m = _matvec_mesh(level)
    eta, bf = _matvec_problem(mesh_m)
    t0 = time.perf_counter()
    st_m = StokesSystem(mesh_m, eta, bf, bc="free_slip", variant="matrix")
    st_m.B  # noqa: B018 — force the lazy divergence block like matvec will
    setup_matrix_s = time.perf_counter() - t0
    rng = np.random.default_rng(1)
    x = rng.standard_normal(st_m.n_dof)
    apply_matrix_s = _time_repeat(lambda: st_m.matvec(x), reps)

    # tensor arm on its own fresh mesh: setup = gathers + coefficient bind
    mesh_t = _matvec_mesh(level)
    eta_t, bf_t = _matvec_problem(mesh_t)
    t0 = time.perf_counter()
    st_t = StokesSystem(mesh_t, eta_t, bf_t, bc="free_slip", variant="tensor")
    setup_tensor_s = time.perf_counter() - t0
    apply_tensor_s = _time_repeat(lambda: st_t.matvec(x), reps)

    parity = float(
        np.max(np.abs(st_t.matvec(x) - st_m.matvec(x)))
        / np.max(np.abs(st_m.matvec(x)))
    )
    amort_matrix = setup_matrix_s / k + apply_matrix_s
    amort_tensor = setup_tensor_s / k + apply_tensor_s
    nnz = st_m.A.nnz + 2 * st_m.B.nnz + st_m.C.nnz
    tensor_flops_n = saddle_apply_flops(mesh_t.n_elements)
    matrix_flops_n = csr_apply_flops(nnz)
    return {
        "level": level,
        "n_elements": mesh_t.n_elements,
        "n_dof": st_t.n_dof,
        "applies_per_mesh": k,
        "setup_matrix_s": setup_matrix_s,
        "setup_tensor_s": setup_tensor_s,
        "apply_matrix_s": apply_matrix_s,
        "apply_tensor_s": apply_tensor_s,
        "raw_apply_ratio": apply_matrix_s / apply_tensor_s,
        "amortized_matrix_s": amort_matrix,
        "amortized_tensor_s": amort_tensor,
        "amortized_speedup": amort_matrix / amort_tensor,
        "parity_rel": parity,
        "saddle_nnz": int(nnz),
        "tensor_flops_per_apply": int(tensor_flops_n),
        "matrix_flops_per_apply": int(matrix_flops_n),
        "flop_ratio_matrix_over_tensor": matrix_flops_n / tensor_flops_n,
        "tensor_apply_mdofs_per_s": st_t.n_dof / apply_tensor_s / 1e6,
    }


def bench_stokes_e2e(smoke: bool) -> dict:
    """End-to-end MINRES Stokes solves, tensor vs matrix variant: the
    residual histories must agree to ~1e-10 of the initial residual and
    the solves report their wall-clock ratio."""
    from ..fem import StokesSystem
    from ..solvers import StokesBlockPreconditioner, minres

    level = 2 if smoke else 3
    tol = 1e-8
    results = {}
    for variant in ("matrix", "tensor"):
        mesh = _matvec_mesh(level)
        eta, bf = _matvec_problem(mesh)
        t0 = time.perf_counter()
        st = StokesSystem(mesh, eta, bf, bc="free_slip", variant=variant)
        prec = StokesBlockPreconditioner(st)
        res = minres(st.matvec, st.rhs(), M=prec.apply, tol=tol, maxiter=500)
        wall = time.perf_counter() - t0
        results[variant] = (res, wall, st)
    res_m, wall_m, st_m = results["matrix"]
    res_t, wall_t, st_t = results["tensor"]
    hist_m = np.asarray(res_m.residuals)
    hist_t = np.asarray(res_t.residuals)
    npts = min(len(hist_m), len(hist_t))
    hist_dev = float(
        np.max(np.abs(hist_m[:npts] - hist_t[:npts])) / max(hist_m[0], 1e-300)
    )
    x_dev = float(
        np.max(np.abs(res_m.x - res_t.x)) / max(np.max(np.abs(res_m.x)), 1e-300)
    )
    return {
        "level": level,
        "tol": tol,
        "iterations_matrix": res_m.iterations,
        "iterations_tensor": res_t.iterations,
        "converged_matrix": bool(res_m.converged),
        "converged_tensor": bool(res_t.converged),
        "wall_matrix_s": wall_m,
        "wall_tensor_s": wall_t,
        "e2e_speedup": wall_m / wall_t,
        "residual_history_max_dev": hist_dev,
        "solution_max_rel_dev": x_dev,
        "div_norm_tensor": st_t.velocity_divergence_norm(res_t.x),
        "div_norm_matrix": st_m.velocity_divergence_norm(res_m.x),
    }


def bench_advection_rate(smoke: bool) -> dict:
    """SUPG rate-operator apply, tensor vs assembled, on a fresh mesh."""
    from ..fem import AdvectionDiffusion
    from ..fem.matfree import advection_apply_flops

    level = 2 if smoke else 3
    reps = 5 if smoke else 50
    mesh_t = _matvec_mesh(level)
    rng = np.random.default_rng(2)
    vel = rng.standard_normal((mesh_t.n_elements, 3))
    T = rng.standard_normal(mesh_t.n_independent)

    t0 = time.perf_counter()
    eq_t = AdvectionDiffusion(mesh_t, 1e-3, vel, source=0.5, variant="tensor")
    setup_tensor_s = time.perf_counter() - t0
    rate_tensor_s = _time_repeat(lambda: eq_t.rate(T), reps)

    mesh_m = _matvec_mesh(level)
    t0 = time.perf_counter()
    eq_m = AdvectionDiffusion(mesh_m, 1e-3, vel, source=0.5, variant="matrix")
    setup_matrix_s = time.perf_counter() - t0
    rate_matrix_s = _time_repeat(lambda: eq_m.rate(T), reps)

    parity = float(
        np.max(np.abs(eq_t.rate(T) - eq_m.rate(T)))
        / max(np.max(np.abs(eq_m.rate(T))), 1e-300)
    )
    return {
        "level": level,
        "n_elements": mesh_t.n_elements,
        "setup_matrix_s": setup_matrix_s,
        "setup_tensor_s": setup_tensor_s,
        "rate_matrix_s": rate_matrix_s,
        "rate_tensor_s": rate_tensor_s,
        "raw_rate_ratio": rate_matrix_s / rate_tensor_s,
        "parity_rel": parity,
        "tensor_flops_per_rate": int(advection_apply_flops(mesh_t.n_elements)),
    }


def bench_kernel_crossover(smoke: bool) -> dict:
    """Section VII matrix-vs-tensor derivative kernel comparison: measured
    throughput of the batched DerivativeKernel at several orders, the
    analytic flop ratio, and the modeled-Ranger crossover order."""
    from ..mangll.tensor import DerivativeKernel, matrix_flops, tensor_flops
    from ..parallel.machine import RANGER

    orders = [1, 2] if smoke else [1, 2, 4, 6]
    ne = 8 if smoke else 64
    reps = 3 if smoke else 10
    per_order = {}
    for p in orders:
        kern = DerivativeKernel(p)
        rng = np.random.default_rng(p)
        u = rng.standard_normal((ne, (p + 1) ** 3))
        t_mat = _time_repeat(lambda: kern.gradient_matrix(u), reps)
        t_ten = _time_repeat(lambda: kern.gradient_tensor(u), reps)
        per_order[str(p)] = {
            "flops_matrix": matrix_flops(p) * ne,
            "flops_tensor": tensor_flops(p) * ne,
            "flop_ratio": matrix_flops(p) / tensor_flops(p),
            "measured_matrix_s": t_mat,
            "measured_tensor_s": t_ten,
            "measured_matrix_gflops": matrix_flops(p) * ne / t_mat / 1e9,
            "measured_tensor_gflops": tensor_flops(p) * ne / t_ten / 1e9,
            "modeled_matrix_s": RANGER.t_element_kernel(p, "matrix", ne),
            "modeled_tensor_s": RANGER.t_element_kernel(p, "tensor", ne),
        }
    modeled_crossover = next(
        (
            p
            for p in range(1, 17)
            if RANGER.t_element_kernel(p, "tensor", 1)
            < RANGER.t_element_kernel(p, "matrix", 1)
        ),
        None,
    )
    return {
        "n_elements": ne,
        "orders": per_order,
        "modeled_crossover_order": modeled_crossover,
    }


def bench_pipeline_phases(smoke: bool, trace_path: str = "obs_trace.json") -> dict:
    """The 4-rank AMR pipeline, observed vs. plain: phase report, trace
    artifact, and the enabled-timer overhead fraction."""
    from .. import obs
    from ..amr import ParAmrPipeline
    from ..parallel import run_spmd

    p = 4
    cycles = 2 if smoke else 3
    target = 250 if smoke else 600
    max_level = 4 if smoke else 5

    def run_pipe(comm):
        pipe = ParAmrPipeline(comm, coarse_level=2, max_level=max_level)
        pipe.run_cycles(cycles, steps_per_cycle=2, target=target)
        return pipe

    def kernel_plain(comm):
        t0 = time.perf_counter()
        run_pipe(comm)
        return time.perf_counter() - t0

    def kernel_observed(comm):
        timer = obs.enable(comm)
        t0 = time.perf_counter()
        run_pipe(comm)
        wall = time.perf_counter() - t0
        obs.disable()
        return {
            "wall": wall,
            "results": timer.results(),
            "trace": timer.trace_data(),
        }

    wall_plain = max(run_spmd(p, kernel_plain))
    observed = run_spmd(p, kernel_observed)
    wall_obs = max(o["wall"] for o in observed)
    report = obs.generate_report(
        [o["results"] for o in observed], executed_ranks=p
    )
    obs.chrome_trace([o["trace"] for o in observed], trace_path)
    big = str(report["core_counts"][-1])
    return {
        "ranks": p,
        "cycles": cycles,
        "wall_plain_s": wall_plain,
        "wall_observed_s": wall_obs,
        "observe_overhead_fraction": (wall_obs - wall_plain) / wall_plain,
        "trace_path": trace_path,
        "fractions": report["fractions"],
        "amr_fraction": report["amr_fraction"],
        "comm_fraction_at": {
            g: report["groups"][g]["comm_fraction"][big]
            for g in report["groups"]
            if report["groups"][g]["phases"]
        },
        "modeled_core_count": int(big),
        "report": report,
        "markdown_report": obs.markdown_report(report),
    }


def bench_convection_phases(smoke: bool) -> dict:
    """Serial convection cycle with ``observe=True``: the phase tree must
    carry the solver counters end to end."""
    from .. import obs

    cfg = RheaConfig(
        initial_level=2,
        max_level=3 if smoke else 4,
        adapt_every=2,
        picard_iterations=2,
        observe=True,
        target_elements=150 if smoke else None,
    )
    sim = MantleConvection(cfg)
    sim.run(1 if smoke else 2)
    timer = obs.active()
    results = timer.results()
    obs.disable()
    report = obs.generate_report([results], executed_ranks=1)
    stokes = report["groups"]["stokes"]["counters"]
    nested = {
        path: dict(e["counters"])
        for path, e in report["phases"].items()
        if e["counters"]
    }
    return {
        "n_elements": sim.mesh.n_elements,
        "fractions": report["fractions"],
        "minres_iterations": stokes.get("minres_iterations", 0),
        "picard_iterations": stokes.get("picard_iterations", 0),
        "prec_builds": stokes.get("prec_builds", 0),
        "cache_hits": stokes.get("cache_hits", 0),
        "cache_misses": stokes.get("cache_misses", 0),
        "phase_counters": nested,
    }


def bench_disabled_overhead(smoke: bool) -> dict:
    """Per-call cost of the obs hooks: disabled (no bound timer — the
    always-on production path) and enabled."""
    from .. import obs

    n = 20_000 if smoke else 200_000
    obs.disable()
    assert obs.active() is None
    # the disabled path must hand back the shared singleton (no allocation)
    singleton = obs.phase("a") is obs.phase("b") is obs.NULL_PHASE

    t0 = time.perf_counter()
    for _ in range(n):  # lint: allow-loop (microbenchmark)
        with obs.phase("x"):
            pass
    disabled_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n):  # lint: allow-loop (microbenchmark)
        obs.counter("c")
    disabled_counter_s = time.perf_counter() - t0

    obs.enable(record_events=False)
    t0 = time.perf_counter()
    for _ in range(n):  # lint: allow-loop (microbenchmark)
        with obs.phase("x"):
            pass
    enabled_s = time.perf_counter() - t0
    obs.disable()
    return {
        "calls": n,
        "null_phase_singleton": bool(singleton),
        "disabled_ns_per_phase": disabled_s / n * 1e9,
        "disabled_ns_per_counter": disabled_counter_s / n * 1e9,
        "enabled_ns_per_phase": enabled_s / n * 1e9,
    }


def bench_amr_kernels(smoke: bool) -> dict:
    """Ghost / balance / extract on a random adaptive distributed tree:
    search oracle vs recursive algorithm, wall seconds plus the collective
    operation counts behind each (the paper-scale argument is collective
    count, not local flops)."""
    from ..mesh.parmesh import collect_ghosts, extract_parmesh
    from ..octree import balance_tree, gather_tree, new_tree, refine_tree
    from ..octree.partree import partition_tree
    from ..parallel import run_spmd

    p = 2 if smoke else 4
    level = 2 if smoke else 3
    algs = ("search", "recursive")

    def kernel(comm):
        from ..octree import ROOT_LEN

        pt0 = new_tree(comm, level)
        offset = pt0.global_offset()
        total = comm.allreduce(len(pt0))
        rng = np.random.default_rng(3)
        gmask = rng.random(total) < 0.3
        pt0 = refine_tree(pt0, gmask[offset : offset + len(pt0)])
        # drill a single leaf at the domain center so the 2:1 repair must
        # propagate through several levels (multi-round ripple, the paper
        # regime; refining whole center shells would stay graded)
        from ..octree import morton_encode
        from ..octree.partree import owners_of_keys, partition_markers

        mid = ROOT_LEN // 2
        ckey = morton_encode(np.array([mid]), np.array([mid]), np.array([mid]))
        for _ in range(3 if smoke else 4):
            markers = partition_markers(comm, pt0.local)
            owner = owners_of_keys(markers, ckey)[0]
            mask = np.zeros(len(pt0), dtype=bool)
            if comm.rank == owner and len(pt0):
                idx = np.searchsorted(pt0.keys, ckey[0], side="right") - 1
                mask[idx] = True
            pt0 = refine_tree(pt0, mask)
        out = {}

        balanced = {}
        for alg in algs:
            s0 = comm.stats.snapshot()
            t0 = time.perf_counter()
            ptb, added, rounds = balance_tree(pt0, "corner", algorithm=alg)
            out[f"balance_{alg}_s"] = time.perf_counter() - t0
            d = comm.stats.since(s0)
            out[f"balance_{alg}_collectives"] = d.total_collective_calls
            out[f"balance_{alg}_rounds"] = int(rounds)
            balanced[alg] = ptb
        gs, gr = gather_tree(balanced["search"]), gather_tree(balanced["recursive"])
        out["balance_bitwise_equal"] = bool(
            np.array_equal(gs.keys, gr.keys) and np.array_equal(gs.levels, gr.levels)
        )

        pt, _ = partition_tree(balanced["search"])
        ghosts = {}
        for alg in algs:
            s0 = comm.stats.snapshot()
            t0 = time.perf_counter()
            ghosts[alg] = collect_ghosts(pt, algorithm=alg)
            out[f"ghost_{alg}_s"] = time.perf_counter() - t0
            d = comm.stats.since(s0)
            out[f"ghost_{alg}_collectives"] = d.total_collective_calls
        (g_s, o_s), (g_r, o_r) = ghosts["search"], ghosts["recursive"]
        out["ghost_bitwise_equal"] = bool(
            np.array_equal(g_s.keys(), g_r.keys()) and np.array_equal(o_s, o_r)
        )

        for alg in algs:
            s0 = comm.stats.snapshot()
            t0 = time.perf_counter()
            extract_parmesh(pt, ghost_algorithm=alg, face_algorithm=alg)
            out[f"extract_{alg}_s"] = time.perf_counter() - t0
            out[f"extract_{alg}_collectives"] = comm.stats.since(
                s0
            ).total_collective_calls
        out["n_elements_global"] = pt.global_count()
        return out

    outs = run_spmd(p, kernel)
    res = {"ranks": p, "level": level}
    for key in outs[0]:
        if key.endswith("_s"):
            res[key] = max(o[key] for o in outs)  # slowest rank = wall
        elif key.endswith("equal"):
            res[key] = all(o[key] for o in outs)
        else:
            res[key] = outs[0][key]
    res["ghost_speedup"] = res["ghost_search_s"] / res["ghost_recursive_s"]
    res["balance_speedup"] = res["balance_search_s"] / res["balance_recursive_s"]
    res["balance_exchanges"] = res["balance_recursive_rounds"]
    res["collective_reduction_balance"] = (
        res["balance_search_collectives"] / max(res["balance_recursive_collectives"], 1)
    )
    return res


def bench_amr_pipeline(smoke: bool) -> dict:
    """The full SPMD adaptation pipeline, all-search vs all-recursive:
    end-to-end wall, AMR wall fraction, and total collective calls."""
    from ..amr import ParAmrPipeline
    from ..parallel import run_spmd

    p = 2 if smoke else 4
    cycles = 2
    target = 250 if smoke else 600
    max_level = 4 if smoke else 5
    out = {"ranks": p, "cycles": cycles, "target": target}
    for alg in ("search", "recursive"):

        def kernel(comm):
            pipe = ParAmrPipeline(
                comm,
                coarse_level=2,
                max_level=max_level,
                ghost_algorithm=alg,
                balance_algorithm=alg,
                face_algorithm=alg,
            )
            t0 = time.perf_counter()
            pipe.run_cycles(cycles, steps_per_cycle=2, target=target)
            wall = time.perf_counter() - t0
            return {
                "wall": wall,
                "amr_fraction": pipe.amr_fraction(),
                "collectives": comm.stats.total_collective_calls,
                "n": pipe.pt.global_count(),
            }

        outs = run_spmd(p, kernel)
        out[f"wall_{alg}_s"] = max(o["wall"] for o in outs)
        out[f"amr_fraction_{alg}"] = max(o["amr_fraction"] for o in outs)
        out[f"collectives_{alg}"] = outs[0]["collectives"]
        out[f"n_elements_{alg}"] = outs[0]["n"]
    out["trees_identical"] = out["n_elements_search"] == out["n_elements_recursive"]
    out["pipeline_speedup"] = out["wall_search_s"] / out["wall_recursive_s"]
    return out


def run_amr_suite(smoke: bool = False) -> dict:
    """Run the recursive-forest-algorithms suite (kernel-level ghost /
    balance / extract comparison plus the end-to-end pipeline) and return
    the BENCH_amr payload.

    Example::

        data = run_amr_suite(smoke=True)
        assert data["scenarios"]["amr_kernels"]["ghost_bitwise_equal"]
        assert data["scenarios"]["amr_kernels"]["balance_exchanges"] <= 2
    """
    out = {
        "suite": "PR6 recursive forest algorithms",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    for name, fn in (
        ("amr_kernels", bench_amr_kernels),
        ("amr_pipeline", bench_amr_pipeline),
    ):
        t0 = time.perf_counter()
        out["scenarios"][name] = fn(smoke)
        out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
        print(f"[regress] {name}: {json.dumps(out['scenarios'][name])}", flush=True)
    return out


def run_obs_suite(smoke: bool = False) -> dict:
    """Run the observability suite (pipeline phases, convection phase
    counters, disabled-hook overhead) and return the BENCH_obs payload.

    Example::

        data = run_obs_suite(smoke=True)
        data["scenarios"]["pipeline_phases"]["amr_fraction"]
    """
    out = {
        "suite": "PR5 observability layer",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    for name, fn in (
        ("pipeline_phases", bench_pipeline_phases),
        ("convection_phases", bench_convection_phases),
        ("disabled_overhead", bench_disabled_overhead),
    ):
        t0 = time.perf_counter()
        out["scenarios"][name] = fn(smoke)
        out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
        summary = {
            k: v
            for k, v in out["scenarios"][name].items()
            if not isinstance(v, (dict, str)) or k == "trace_path"
        }
        print(f"[regress] {name}: {json.dumps(summary)}", flush=True)
    return out


def run_matvec_suite(smoke: bool = False) -> dict:
    """Run the matrix-free apply suite (saddle apply, Stokes end-to-end,
    advection rate, kernel crossover) and return the BENCH_matvec
    payload."""
    out = {
        "suite": "PR4 matrix-free apply engine",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    for name, fn in (
        ("saddle_apply", bench_saddle_apply),
        ("stokes_e2e", bench_stokes_e2e),
        ("advection_rate", bench_advection_rate),
        ("kernel_crossover", bench_kernel_crossover),
    ):
        t0 = time.perf_counter()
        out["scenarios"][name] = fn(smoke)
        out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
        print(f"[regress] {name}: {json.dumps(out['scenarios'][name])}", flush=True)
    return out


def run_suite(smoke: bool = False) -> dict:
    """Run the setup-amortization suite (Stokes repeat, mini convection,
    DG cubed sphere, AMG setup) and return the BENCH_tentpole payload."""
    out = {
        "suite": "PR1 setup amortization",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    for name, fn in (
        ("stokes_repeat", bench_stokes_repeat),
        ("convection_mini", bench_convection_mini),
        ("dg_cubed_sphere", bench_dg_cubed_sphere),
        ("amg_setup", bench_amg_setup),
    ):
        t0 = time.perf_counter()
        out["scenarios"][name] = fn(smoke)
        out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
        print(f"[regress] {name}: {json.dumps(out['scenarios'][name])}", flush=True)
    return out


def run_checkpoint_suite(smoke: bool = False) -> dict:
    """Run the checkpoint suite (save/restore overhead and shard sizes)
    and return the BENCH_checkpoint payload."""
    out = {
        "suite": "PR3 checkpoint overhead",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    t0 = time.perf_counter()
    out["scenarios"]["checkpoint_overhead"] = bench_checkpoint_overhead(smoke)
    out["scenarios"]["checkpoint_overhead"]["scenario_wall_s"] = time.perf_counter() - t0
    print(
        f"[regress] checkpoint_overhead: "
        f"{json.dumps(out['scenarios']['checkpoint_overhead'])}",
        flush=True,
    )
    return out


def _fleet_specs(n_jobs: int, cycles: int, level: int) -> list:
    """Heterogeneous same-structure scenario specs for the fleet benches:
    per-job Ra / activation energy sweeps with every fourth job on the
    yielding rheology, spread over three tenants."""
    from ..fleet import ScenarioSpec

    specs = []
    for i in range(n_jobs):
        law = "yielding" if i % 4 == 3 else "arrhenius"
        specs.append(
            ScenarioSpec(
                job_id=f"j{i:02d}",
                tenant=f"t{i % 3}",
                Ra=1e4 * (1.0 + 0.5 * (i % 16)),
                viscosity_law=law,
                activation_energy=3.0 + 0.25 * (i % 12),
                yield_stress=(4.0 + 0.1 * (i % 12)) if law == "yielding" else None,
                initial_level=level,
                max_level=level + 1,
                cycles=cycles,
                seed=i,
                priority=i % 2,
            )
        )
    return specs


def _diag_rel_dev(a, b) -> float:
    """Max relative deviation between two StepDiagnostics records over
    the physics observables (vrms, Nusselt, mean temperature)."""
    return max(
        abs(x - y) / max(abs(y), 1e-30)
        for x, y in ((a.vrms, b.vrms), (a.nusselt, b.nusselt), (a.mean_T, b.mean_T))
    )


def bench_fleet_throughput(smoke: bool) -> dict:
    """Aggregate throughput of the batched fleet vs the serial scenario
    loop over N same-structure scenarios (the PR-8 headline).

    The fleet arm runs first so any process warmup (BLAS thread pools,
    page cache) favors the *serial* arm, making the reported ratio
    conservative.  The serial arm is the honest pre-fleet workflow: one
    mesh extraction, one AMG hierarchy, and one MINRES solve per
    scenario.  Returns both walls, the throughput ratio (target >= 10x
    at 64 jobs in full mode), the batched-vs-serial per-job diagnostics
    deviation, and the mesh-registry sharing counters.
    """
    from ..fleet import FleetService

    n_jobs = 6 if smoke else 64
    cycles = 1 if smoke else 2
    level = 2
    specs = _fleet_specs(n_jobs, cycles, level)

    svc = FleetService()
    for spec in specs:
        svc.admit(spec)
    t0 = time.perf_counter()
    svc.run()
    fleet_s = time.perf_counter() - t0
    fleet_last = {j.job_id: j.sim.history[-1] for j in svc.jobs.values()}
    usage = svc.report()

    t0 = time.perf_counter()
    serial_last = {}
    for spec in specs:
        sim = MantleConvection(spec.to_config(), spec.t_init())
        sim.run(cycles, adapt=False)
        serial_last[spec.job_id] = sim.history[-1]
    serial_s = time.perf_counter() - t0

    dev = max(
        _diag_rel_dev(fleet_last[jid], serial_last[jid]) for jid in serial_last
    )
    return {
        "n_jobs": n_jobs,
        "cycles": cycles,
        "initial_level": level,
        "serial_s": serial_s,
        "fleet_s": fleet_s,
        "throughput_ratio": serial_s / fleet_s,
        "parity_max_rel_dev": dev,
        "meshes_built": svc.registry.built,
        "meshes_shared": svc.registry.shared,
        "minres_iterations": sum(
            led["minres_iterations"] for led in usage["jobs"].values()
        ),
    }


def bench_fleet_preempt(smoke: bool) -> dict:
    """Budget exhaustion mid-fleet: snapshot every started job, rebuild
    the fleet from the manifest, finish, and check the resumed per-job
    diagnostics reproduce the uninterrupted run (deterministic per-cycle
    solver schedule => the deviation should be exactly zero)."""
    import shutil
    import tempfile

    from ..fleet import FleetService

    n_jobs = 3 if smoke else 4
    cycles = 2 if smoke else 3
    specs = _fleet_specs(n_jobs, cycles, level=2)

    base = FleetService()
    for spec in specs:
        base.admit(spec)
    base.run()
    ref = {j.job_id: j.sim.history for j in base.jobs.values()}

    root = tempfile.mkdtemp(prefix="fleet_regress_")
    try:
        svc = FleetService(root=root)
        for spec in specs:
            svc.admit(spec)
        svc.arm_budget(1)
        t0 = time.perf_counter()
        svc.run()  # one quantum, then preempt-to-checkpoint
        preempt_s = time.perf_counter() - t0
        statuses = svc.statuses()
        t0 = time.perf_counter()
        resumed = FleetService.resume(root)
        restore_s = time.perf_counter() - t0
        resumed.run()
        dev = 0.0
        n_compared = 0
        for jid, history in ref.items():
            got = resumed.jobs[jid].sim.history
            for a, b in zip(got, history):
                dev = max(dev, _diag_rel_dev(a, b))
                n_compared += 1
        usage = resumed.accountant.json_report()
        return {
            "n_jobs": n_jobs,
            "cycles": cycles,
            "preempt_wall_s": preempt_s,
            "restore_wall_s": restore_s,
            "statuses_at_preempt": statuses,
            "resumed_max_rel_dev": dev,
            "diags_compared": n_compared,
            "resumed_cycles": sum(
                led["cycles"] for led in usage["jobs"].values()
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_fleet_suite(smoke: bool = False) -> dict:
    """Run the multi-tenant fleet suite (batched throughput vs the
    serial scenario loop, preempt/resume reproducibility) and return the
    BENCH_fleet payload.

    Example::

        data = run_fleet_suite(smoke=True)
        assert data["scenarios"]["fleet_throughput"]["parity_max_rel_dev"] < 1e-4
        assert data["scenarios"]["fleet_preempt"]["resumed_max_rel_dev"] == 0.0
    """
    out = {
        "suite": "PR8 multi-tenant scenario fleet",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    for name, fn in (
        ("fleet_throughput", bench_fleet_throughput),
        ("fleet_preempt", bench_fleet_preempt),
    ):
        t0 = time.perf_counter()
        out["scenarios"][name] = fn(smoke)
        out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
        print(f"[regress] {name}: {json.dumps(out['scenarios'][name])}", flush=True)
    return out


# --------------------------------------------------------------------------
# multiproc suite: threaded oracle vs process backend, *real* wall clock


def _state_digest(*arrays) -> str:
    """Order-sensitive bitwise digest of a tuple of arrays."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _mp_forest_kernel(comm, level):
    """Ghost construction + 2:1 balance on a random adaptive tree — the
    collective-heavy workload (transport cost dominates local flops)."""
    from ..mesh.parmesh import collect_ghosts
    from ..octree import balance_tree, gather_tree, new_tree, refine_tree

    pt = new_tree(comm, level)
    offset = pt.global_offset()
    total = comm.allreduce(len(pt))
    rng = np.random.default_rng(11)
    gmask = rng.random(total) < 0.3
    pt = refine_tree(pt, gmask[offset : offset + len(pt)])
    t0 = time.perf_counter()
    ptb, _added, _rounds = balance_tree(pt, "corner")
    ghost, owners = collect_ghosts(ptb)
    wall = time.perf_counter() - t0
    g = gather_tree(ptb)
    return {
        "wall": wall,
        "digest": _state_digest(g.keys, g.levels, ghost.keys(), owners),
    }


def _mp_minres_kernel(comm, level, tol):
    """One full matfree MINRES Stokes solve per rank on its own mesh —
    embarrassingly parallel, so it isolates the GIL-vs-process story."""
    from ..fem import StokesSystem
    from ..solvers import StokesBlockPreconditioner, minres

    mesh = _matvec_mesh(level, seed=100 + comm.rank)
    eta, bf = _matvec_problem(mesh)
    t0 = time.perf_counter()
    st = StokesSystem(mesh, eta, bf, bc="free_slip", variant="tensor")
    prec = StokesBlockPreconditioner(st)
    res = minres(st.matvec, st.rhs(), M=prec.apply, tol=tol, maxiter=300)
    wall = time.perf_counter() - t0
    comm.barrier()
    return {
        "wall": wall,
        "iterations": res.iterations,
        "digest": _state_digest(np.asarray(res.residuals), res.x),
    }


def _mp_pipeline_kernel(comm, cycles, target, max_level):
    """One full ParAmrPipeline AMR+solve cycle — the end-to-end workload
    the acceptance speedup is measured on."""
    from ..amr import ParAmrPipeline
    from ..octree import gather_tree

    pipe = ParAmrPipeline(comm, coarse_level=2, max_level=max_level)
    t0 = time.perf_counter()
    pipe.run_cycles(cycles, steps_per_cycle=2, target=target)
    wall = time.perf_counter() - t0
    g = gather_tree(pipe.pt)
    return {
        "wall": wall,
        "n": pipe.pt.global_count(),
        "digest": _state_digest(g.keys, g.levels, pipe.T),
    }


def _mp_compare(p, kernel, *args):
    """Run a kernel on both backends; max-over-ranks wall each, plus a
    per-rank bitwise comparison of the returned digests."""
    from ..parallel import run_spmd_with_comms

    out = {}
    stats = None
    for backend in ("thread", "process"):
        results, comms = run_spmd_with_comms(p, kernel, *args, backend=backend)
        out[f"wall_{backend}_s"] = max(r["wall"] for r in results)
        out[f"digests_{backend}"] = [r["digest"] for r in results]
        if backend == "process":
            stats = comms[0].stats
    out["bitwise_identical"] = out["digests_thread"] == out["digests_process"]
    for backend in ("thread", "process"):
        del out[f"digests_{backend}"]
    out["speedup"] = out["wall_thread_s"] / out["wall_process_s"]
    return out, stats


def bench_multiproc_kernels(smoke: bool) -> dict:
    """Forest ghost/balance and per-rank matfree MINRES, threaded vs
    process backend at one rank count."""
    p = 2 if smoke else 4
    level = 2 if smoke else 3
    out = {"ranks": p, "level": level, "host_cores": os.cpu_count()}
    forest, _ = _mp_compare(p, _mp_forest_kernel, level)
    for k, v in forest.items():
        out[f"forest_{k}"] = v
    minres_cmp, _ = _mp_compare(p, _mp_minres_kernel, level, 1e-8)
    for k, v in minres_cmp.items():
        out[f"minres_{k}"] = v
    return out


def bench_multiproc_pipeline(smoke: bool) -> dict:
    """The acceptance workload: a full ParAmrPipeline cycle at P in
    {2, 4, 8}, threaded vs process, with per-rank bitwise identity and a
    MachineModel anchored at the largest measured process run.

    The >= 3x-at-P=8 acceptance gate presumes an 8-core host;
    ``host_cores`` records what this run actually had, so a 1-core CI
    box reports speedup ~1 honestly instead of faking the gate.
    """
    from ..parallel import RANGER

    cycles = 1 if smoke else 2
    target = 250 if smoke else 400
    max_level = 4
    ps = [2] if smoke else [2, 4, 8]
    out = {
        "cycles": cycles,
        "target": target,
        "host_cores": os.cpu_count(),
        "by_ranks": {},
    }
    anchor_stats = None
    for p in ps:
        cmp_out, stats = _mp_compare(
            p, _mp_pipeline_kernel, cycles, target, max_level
        )
        out["by_ranks"][str(p)] = cmp_out
        anchor_stats, anchor_p = stats, p
    # anchor the extrapolation model at the largest measured process run
    # (rank 0's tally, the same convention t_total prices)
    measured = out["by_ranks"][str(anchor_p)]["wall_process_s"]
    anchored = RANGER.anchored_to(anchor_stats, anchor_p, measured)
    out["anchor"] = {
        "ranks": anchor_p,
        "measured_s": measured,
        "modeled_unanchored_s": RANGER.t_total(anchor_stats, anchor_p),
        "speed_factor": RANGER.flop_rate / anchored.flop_rate,
        "model_name": anchored.name,
        "modeled_62464_s": anchored.t_total(anchor_stats, 62464),
    }
    pmax = str(max(int(k) for k in out["by_ranks"]))
    out["speedup_at_pmax"] = out["by_ranks"][pmax]["speedup"]
    out["all_bitwise_identical"] = all(
        v["bitwise_identical"] for v in out["by_ranks"].values()
    )
    return out


def run_multiproc_suite(smoke: bool = False) -> dict:
    """Run the process-backend suite (threaded oracle vs multiprocess
    shared-memory ranks) and return the BENCH_multiproc payload.

    Runs under ``REPRO_SANITIZE=1`` (forced for the comparison) so the
    bitwise-identity flags certify the process backend against the
    threaded oracle with CheckedComm live on both.

    Example::

        data = run_multiproc_suite(smoke=True)
        assert data["scenarios"]["multiproc_pipeline"]["all_bitwise_identical"]
    """
    from ..parallel import procomm

    out = {
        "suite": "PR9 multiprocess shared-memory backend",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host_cores": os.cpu_count(),
        "shm_available": procomm.available(),
        "scenarios": {},
    }
    if not procomm.available():
        print("[regress] POSIX shared memory unavailable; multiproc suite skipped")
        return out
    prev = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        for name, fn in (
            ("multiproc_kernels", bench_multiproc_kernels),
            ("multiproc_pipeline", bench_multiproc_pipeline),
        ):
            t0 = time.perf_counter()
            out["scenarios"][name] = fn(smoke)
            out["scenarios"][name]["scenario_wall_s"] = time.perf_counter() - t0
            print(f"[regress] {name}: {json.dumps(out['scenarios'][name])}", flush=True)
    finally:
        if prev is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = prev
        procomm.shutdown_pools()
    return out


# --------------------------------------------------------------------------
# PR10: geometric vs algebraic multigrid preconditioning


def _gmg_problem(mesh, contrast: float):
    """Gaussian viscosity blob with a controlled max/min contrast."""
    c = mesh.element_centers()
    r2 = ((c - 0.5) ** 2).sum(axis=1)
    eta = np.exp(np.log(contrast) * np.exp(-r2 / 0.08))
    x = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 2])
    return eta, bf


def bench_gmg_vs_amg(smoke: bool) -> dict:
    """The PR-10 gated comparison: GMG vs AMG block preconditioning of
    the same MINRES Stokes solve across a viscosity-contrast sweep.

    Every (contrast, kind) cell gets a *fresh* mesh of identical
    structure, so both arms pay cold setup: AMG assembles the three
    scalar Poisson blocks and runs smoothed aggregation, GMG coarsens the
    forest and builds matrix-free level operators.  Gates: GMG iterations
    within 1.5x of AMG at every contrast and zero sparse assembly on the
    GMG arm (counted, not assumed); the cold-setup ratio is recorded
    (3-4x since AMG coarsens the coupled dofs only, 6-11x before).
    """
    from ..fem import StokesSystem, assembly_counts, reset_assembly_counts
    from ..solvers import (
        GMGStokesPreconditioner,
        StokesBlockPreconditioner,
        minres,
    )

    level = 2 if smoke else 4
    tol = 1e-8
    maxiter = 200 if smoke else 600
    contrasts = [1e2] if smoke else [1e2, 1e4, 1e6]
    reps = 1 if smoke else 3
    sweep = []
    for contrast in contrasts:
        row = {"contrast": contrast}
        for kind in ("amg", "gmg"):
            setups, solves = [], []
            for _ in range(reps):  # min-of-reps: cold setup timing is noisy
                mesh = _matvec_mesh(level)  # fresh per rep: cold opcache
                eta, bf = _gmg_problem(mesh, contrast)
                t0 = time.perf_counter()
                st = StokesSystem(mesh, eta, bf, bc="free_slip", variant="tensor")
                system = time.perf_counter() - t0
                # count and time the preconditioner build in isolation:
                # the system construction (identical on both arms,
                # includes the one-off body-force mass assembly) is
                # reported separately
                reset_assembly_counts()
                t0 = time.perf_counter()
                if kind == "gmg":
                    prec = GMGStokesPreconditioner(st)
                else:
                    prec = StokesBlockPreconditioner(st)
                setups.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                res = minres(
                    st.matvec, st.rhs(), M=prec.apply, tol=tol, maxiter=maxiter
                )
                solves.append(time.perf_counter() - t0)
                counts = assembly_counts()
            row[kind] = {
                "system_s": system,
                "setup_s": min(setups),
                "solve_s": min(solves),
                "iterations": res.iterations,
                "converged": bool(res.converged),
                "operator_complexity": float(prec.operator_complexity),
                "assembly_counts": counts,
            }
            if kind == "gmg":
                row["gmg"]["grid_sizes"] = prec.grid_sizes()
        row["iter_ratio"] = row["gmg"]["iterations"] / row["amg"]["iterations"]
        row["setup_speedup"] = row["amg"]["setup_s"] / row["gmg"]["setup_s"]
        row["gmg_zero_assembly"] = not any(
            row["gmg"]["assembly_counts"].values()
        )
        sweep.append(row)
    return {
        "level": level,
        "tol": tol,
        "contrasts": contrasts,
        "sweep": sweep,
        "max_iter_ratio": max(r["iter_ratio"] for r in sweep),
        "min_setup_speedup": min(r["setup_speedup"] for r in sweep),
        "all_gmg_zero_assembly": all(r["gmg_zero_assembly"] for r in sweep),
    }


def run_gmg_suite(smoke: bool = False) -> dict:
    """Run the GMG-vs-AMG preconditioner suite and return the BENCH_gmg
    payload."""
    out = {
        "suite": "PR10 geometric multigrid preconditioner",
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {},
    }
    t0 = time.perf_counter()
    out["scenarios"]["gmg_vs_amg"] = bench_gmg_vs_amg(smoke)
    out["scenarios"]["gmg_vs_amg"]["scenario_wall_s"] = time.perf_counter() - t0
    print(
        f"[regress] gmg_vs_amg: {json.dumps(out['scenarios']['gmg_vs_amg'])}",
        flush=True,
    )
    return out


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.perf.regress --suite <name>``.

    Runs the selected suite, writes ``BENCH_<suite>.json`` (or
    ``BENCH_<suite>_smoke.json`` with ``--smoke``), prints the headline
    numbers, and returns the process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--suite",
        choices=[
            "tentpole", "checkpoint", "matvec", "obs", "amr", "fleet",
            "multiproc", "gmg",
        ],
        default="tentpole",
        help="which scenario suite to run (default tentpole)",
    )
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, emission check only")
    ap.add_argument(
        "--out",
        default=None,
        help="output JSON path (default BENCH_<suite>.json, or "
        "BENCH_<suite>_smoke.json in smoke mode so smoke runs never "
        "clobber the full-mode artifact)",
    )
    args = ap.parse_args(argv)
    if args.out is None:
        stem = args.suite
        args.out = f"BENCH_{stem}_smoke.json" if args.smoke else f"BENCH_{stem}.json"
        if args.suite == "tentpole" and args.smoke:
            args.out = "BENCH_smoke.json"  # historical name, used by CI
    if args.suite == "checkpoint":
        result = run_checkpoint_suite(smoke=args.smoke)
    elif args.suite == "matvec":
        result = run_matvec_suite(smoke=args.smoke)
    elif args.suite == "obs":
        result = run_obs_suite(smoke=args.smoke)
    elif args.suite == "amr":
        result = run_amr_suite(smoke=args.smoke)
    elif args.suite == "fleet":
        result = run_fleet_suite(smoke=args.smoke)
    elif args.suite == "multiproc":
        result = run_multiproc_suite(smoke=args.smoke)
    elif args.suite == "gmg":
        result = run_gmg_suite(smoke=args.smoke)
    else:
        result = run_suite(smoke=args.smoke)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
    print(f"[regress] wrote {args.out}")
    if args.suite == "matvec":
        sa = result["scenarios"]["saddle_apply"]
        ee = result["scenarios"]["stokes_e2e"]
        print(
            f"[regress] saddle amortized speedup {sa['amortized_speedup']:.2f}x "
            f"(raw apply ratio {sa['raw_apply_ratio']:.2f}x), "
            f"e2e residual-history max dev {ee['residual_history_max_dev']:.2e}"
        )
    elif args.suite == "tentpole":
        sr = result["scenarios"]["stokes_repeat"]
        print(
            f"[regress] stokes_repeat speedup {sr['speedup']:.2f}x "
            f"(baseline {sr['baseline_s']:.2f}s -> optimized {sr['optimized_s']:.2f}s), "
            f"lag iteration ratio {sr['lag_iter_ratio']:.3f}"
        )
    elif args.suite == "obs":
        pp = result["scenarios"]["pipeline_phases"]
        do = result["scenarios"]["disabled_overhead"]
        print(
            f"[regress] AMR fraction {100 * pp['amr_fraction']:.1f}%, "
            f"observe overhead {100 * pp['observe_overhead_fraction']:.1f}%, "
            f"disabled hook {do['disabled_ns_per_phase']:.0f} ns/phase; "
            f"trace at {pp['trace_path']}"
        )
    elif args.suite == "fleet":
        ft = result["scenarios"]["fleet_throughput"]
        fp = result["scenarios"]["fleet_preempt"]
        print(
            f"[regress] fleet {ft['n_jobs']} jobs x {ft['cycles']} cycles: "
            f"{ft['throughput_ratio']:.2f}x over the serial loop "
            f"(serial {ft['serial_s']:.2f}s -> fleet {ft['fleet_s']:.2f}s), "
            f"parity dev {ft['parity_max_rel_dev']:.2e}, "
            f"meshes built {ft['meshes_built']} shared {ft['meshes_shared']}; "
            f"preempt/resume dev {fp['resumed_max_rel_dev']:.2e} over "
            f"{fp['diags_compared']} diagnostics"
        )
    elif args.suite == "amr":
        ak = result["scenarios"]["amr_kernels"]
        pl = result["scenarios"]["amr_pipeline"]
        print(
            f"[regress] ghost {ak['ghost_speedup']:.2f}x "
            f"({ak['ghost_search_collectives']} -> "
            f"{ak['ghost_recursive_collectives']} collectives), "
            f"balance {ak['balance_speedup']:.2f}x in "
            f"{ak['balance_exchanges']} exchange(s) "
            f"({ak['balance_search_collectives']} -> "
            f"{ak['balance_recursive_collectives']} collectives), "
            f"bitwise ghost={ak['ghost_bitwise_equal']} "
            f"balance={ak['balance_bitwise_equal']}; "
            f"pipeline {pl['pipeline_speedup']:.2f}x, AMR fraction "
            f"{100 * pl['amr_fraction_search']:.1f}% -> "
            f"{100 * pl['amr_fraction_recursive']:.1f}%"
        )
    elif args.suite == "gmg":
        gv = result["scenarios"]["gmg_vs_amg"]
        per_c = ", ".join(
            f"{r['contrast']:g}: {r['gmg']['iterations']}/{r['amg']['iterations']} it "
            f"(setup {r['setup_speedup']:.1f}x)"
            for r in gv["sweep"]
        )
        print(
            f"[regress] gmg-vs-amg at contrasts {per_c}; "
            f"max iter ratio {gv['max_iter_ratio']:.2f}, "
            f"min setup speedup {gv['min_setup_speedup']:.1f}x, "
            f"zero-assembly={gv['all_gmg_zero_assembly']}"
        )
    elif args.suite == "multiproc":
        if result["scenarios"]:
            mk = result["scenarios"]["multiproc_kernels"]
            mp_ = result["scenarios"]["multiproc_pipeline"]
            per_p = ", ".join(
                f"P={p}: {v['speedup']:.2f}x"
                f"{'' if v['bitwise_identical'] else ' (NOT bitwise!)'}"
                for p, v in sorted(
                    mp_["by_ranks"].items(), key=lambda kv: int(kv[0])
                )
            )
            print(
                f"[regress] multiproc on {mp_['host_cores']}-core host — "
                f"pipeline process-over-thread {per_p}; "
                f"minres {mk['minres_speedup']:.2f}x, "
                f"forest {mk['forest_speedup']:.2f}x; "
                f"bitwise={mp_['all_bitwise_identical']}; "
                f"anchored {mp_['anchor']['model_name']} "
                f"speed factor {mp_['anchor']['speed_factor']:.2f} "
                f"(modeled@62464 {mp_['anchor']['modeled_62464_s']:.3g}s)"
            )
    else:
        co = result["scenarios"]["checkpoint_overhead"]
        print(
            f"[regress] snapshot fraction {100 * co['snapshot_fraction']:.1f}% "
            f"of cycle wall, {co['shard_bytes_per_element']:.0f} B/element, "
            f"restore on {co['restore_ranks']} ranks in {co['restore_s']:.2f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
