"""Measured-plus-modeled helpers of the paper-figure suite.

Policy (see DESIGN.md section 5): every scalability figure distinguishes
**executed** data — real SPMD runs on simulated ranks, real distributed
data structures, timed by their obs phases — from **modeled** data — the
Ranger machine model applied to measured communication tallies and
analytic per-element work, evaluated at the paper's core counts.  Tables
print both, labeled.  Every modeled row is one
:meth:`~repro.parallel.MachineModel.t_total` of a per-rank
:class:`~repro.parallel.CommStats` tally whose work is set with
``add_flops`` (:func:`work_tally`).

Analytic work constants are order-of-magnitude calibrations of the
low-order kernels (flops per element per explicit SUPG step; flops per
element per MINRES iteration for the vector Stokes operator); the *shape*
of the scaling curves depends on the ratio of this work to the modeled
communication, not on their absolute values.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro import obs
from repro.amr import ParAmrPipeline
from repro.parallel import RANGER, CommStats, merge_stats, run_spmd_with_comms

from .kernels import tensor_flops

#: Explicit SUPG advection-diffusion: ~2 sparse matvecs (27-point stencil)
#: plus stabilization per predictor-corrector step.
ADV_FLOPS_PER_ELEMENT_STEP = 600.0

#: One MINRES iteration on the vector Stokes operator: 24x24 element
#: matvec plus preconditioner V-cycle work per element.
STOKES_FLOPS_PER_ELEMENT_ITER = 6.0e3

#: Ranger at the sustained high-order DG kernel rate (paper: up to
#: 4.4 Gflop/s/core for dense element kernels).
DG_MACHINE = dataclasses.replace(RANGER, flop_rate=2.0e9)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width text table (the figures print paper-style tables)."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.3g}" if isinstance(v, float) else str(v) for v in r] for r in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(([title] if title else []) + lines)


def measured_pipeline_run(
    p: int, *, coarse_level: int, max_level: int, target: int, cycles: int,
    steps_per_cycle: int,
) -> dict:
    """Execute the full SPMD AMR pipeline on ``p`` simulated ranks.

    Every rank binds a :class:`~repro.obs.PhaseTimer`; returns the
    :func:`~repro.obs.generate_report` of their phases as ``report``
    (``report["phases"]["amr/balance"]["wall_s"]["max"]``,
    ``report["amr_fraction"]``), the final global element count, the
    adaptation history, and the per-rank share of the merged
    communication tally.

    Example::

        out = measured_pipeline_run(2, coarse_level=2, max_level=4, target=200,
                                    cycles=1, steps_per_cycle=2)
        out["report"]["phases"]["advection"]["wall_s"]["max"]
    """

    def kernel(comm):
        timer = obs.enable(comm, record_events=False)
        try:
            pipe = ParAmrPipeline(comm, coarse_level=coarse_level, max_level=max_level)
            pipe.run_cycles(cycles, steps_per_cycle, target)
        finally:
            obs.disable()
        return timer.results(), pipe.pt.global_count(), pipe.adapt_history

    results, comms = run_spmd_with_comms(p, kernel)
    stats = merge_stats([c.stats for c in comms])
    return {
        "report": obs.generate_report([r[0] for r in results], executed_ranks=p),
        "n_elements": results[0][1],
        "adapt_history": results[0][2],
        "comm_per_rank": CommStats(
            stats.p2p_messages // p,
            stats.p2p_bytes // p,
            {k: v // p for k, v in stats.collective_calls.items()},
            {k: v / p for k, v in stats.collective_bytes.items()},
        ),
    }


def work_tally(comm: CommStats, flops: float, surface_ratio: float = 1.0) -> CommStats:
    """A per-rank tally for :meth:`MachineModel.t_total`: ``comm``'s
    messages and collectives, payload volumes scaled by
    ``surface_ratio``, and ``flops`` of work."""
    out = CommStats(
        comm.p2p_messages,
        int(comm.p2p_bytes * surface_ratio),
        dict(comm.collective_calls),
        {k: v * surface_ratio for k, v in comm.collective_bytes.items()},
    )
    out.add_flops(flops)
    return out


def model_weak_scaling(
    core_counts: Sequence[int], elements_per_core: int, steps: int, comm: CommStats
) -> list[dict]:
    """Model isogranular scaling: per-rank work fixed, comm priced at P.

    ``comm`` is a measured per-rank tally at the executed scale
    (payloads per collective stay ~constant under weak scaling — the
    surface-to-volume property).  Returns one row per core count with
    the modeled seconds and parallel efficiency vs the first count.
    """
    work = work_tally(comm, ADV_FLOPS_PER_ELEMENT_STEP * elements_per_core * steps)
    t = [RANGER.t_total(work, p) for p in core_counts]
    return [
        {"cores": p, "elements": p * elements_per_core, "t_total": tp,
         "efficiency": t[0] / tp}
        for p, tp in zip(core_counts, t)
    ]


def model_strong_scaling(
    core_counts: Sequence[int], total_elements: float, steps: int, comm: CommStats
) -> list[dict]:
    """Model fixed-size scaling: per-rank work shrinks 1/P, per-rank
    surface communication shrinks ~P^{-2/3}, collective latency grows
    log P.  Speedups are measured against the first core count."""
    p0 = core_counts[0]
    work = [
        work_tally(comm, ADV_FLOPS_PER_ELEMENT_STEP * (total_elements / p) * steps,
                   (p0 / p) ** (2.0 / 3.0))
        for p in core_counts
    ]
    t = [RANGER.t_total(w, p) for w, p in zip(work, core_counts)]
    return [
        {"cores": p, "t_total": tp, "speedup": t[0] / tp * p0,
         "efficiency": t[0] / tp * p0 / p}
        for p, tp in zip(core_counts, t)
    ]


def model_dg_weak_scaling(p_order: int, core_counts: Sequence[int]) -> list[dict]:
    """Weak-scaling efficiency of one DG adaptation cycle at 64 elements
    per core: 32 five-stage RK steps with face traces as the
    communication unit, plus the AMR collectives, on :data:`DG_MACHINE`;
    efficiency vs the first count."""
    n, elements_per_core, steps, stages = p_order + 1, 64, 32, 5
    face_bytes = 8.0 * n * n * 6 * elements_per_core ** (2.0 / 3.0)  # surface traces
    comm = CommStats()
    for _ in range(steps * stages):
        comm.record_collective("alltoall", face_bytes)
    for _ in range(4):  # adaptation collectives per cycle
        comm.record_collective("allreduce", 8)
        comm.record_collective("allgather", 8)
    comm.add_flops(tensor_flops(p_order) * elements_per_core * steps * stages)
    t = [DG_MACHINE.t_total(comm, p) for p in core_counts]
    return [{"cores": p, "t": tp, "eff_rel": t[0] / tp} for p, tp in zip(core_counts, t)]
