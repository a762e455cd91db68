"""Measured-plus-modeled scaling harness.

Policy (see DESIGN.md section 5): every scalability benchmark
distinguishes **executed** data — real SPMD runs on simulated ranks, real
distributed data structures, wall-clock timed — from **modeled** data —
the Ranger machine model applied to measured communication tallies and
analytic per-element work, evaluated at the paper's core counts.  Tables
print both, labeled.

Analytic work constants are order-of-magnitude calibrations of the
low-order kernels (flops per element per explicit SUPG step; flops per
element per MINRES iteration for the vector Stokes operator); the *shape*
of the scaling curves depends on the ratio of this work to the modeled
communication, not on their absolute values.
"""

from __future__ import annotations

from typing import Sequence

from .. import obs
from ..amr import ParAmrPipeline, RotatingFrontWorkload
from ..parallel import (
    RANGER,
    CommStats,
    MachineModel,
    merge_stats,
    run_spmd_with_comms,
)

__all__ = [
    "format_table",
    "measured_pipeline_run",
    "model_weak_scaling",
    "model_strong_scaling",
    "ADV_FLOPS_PER_ELEMENT_STEP",
    "STOKES_FLOPS_PER_ELEMENT_ITER",
]

#: Explicit SUPG advection-diffusion: ~2 sparse matvecs (27-point stencil)
#: plus stabilization per predictor-corrector step.
ADV_FLOPS_PER_ELEMENT_STEP = 600.0

#: One MINRES iteration on the vector Stokes operator: 24x24 element
#: matvec plus preconditioner V-cycle work per element.
STOKES_FLOPS_PER_ELEMENT_ITER = 6.0e3


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width text table (the benches print paper-style tables)."""
    cells = [[str(h) for h in headers]]
    for r in rows:
        cells.append([
            f"{v:.3g}" if isinstance(v, float) else str(v) for v in r
        ])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def measured_pipeline_run(
    p: int,
    *,
    coarse_level: int = 2,
    max_level: int = 6,
    target: int = 400,
    cycles: int = 2,
    steps_per_cycle: int = 4,
    workload: RotatingFrontWorkload | None = None,
) -> dict:
    """Execute the full SPMD AMR pipeline on ``p`` simulated ranks.

    Every rank binds a :class:`~repro.obs.PhaseTimer`; returns the
    :func:`~repro.obs.generate_report` of their phases as ``report``
    (``report["phases"]["amr/balance"]["wall_s"]["max"]``,
    ``report["amr_fraction"]``), its ``total_wall_s`` as ``total_time``,
    the final global element count, the adaptation history, and the
    per-rank share of the merged communication tally.

    Example::

        out = measured_pipeline_run(2, target=200, cycles=1)
        out["report"]["phases"]["advection"]["wall_s"]["max"]
    """

    def kernel(comm):
        timer = obs.enable(comm, record_events=False)
        try:
            pipe = ParAmrPipeline(
                comm, workload=workload, coarse_level=coarse_level, max_level=max_level
            )
            pipe.run_cycles(cycles, steps_per_cycle, target)
        finally:
            obs.disable()
        return timer.results(), pipe.pt.global_count(), pipe.adapt_history

    results, comms = run_spmd_with_comms(p, kernel)
    report = obs.generate_report([r[0] for r in results], executed_ranks=p)
    stats = merge_stats([c.stats for c in comms])
    return {
        "p": p,
        "report": report,
        "n_elements": results[0][1],
        "adapt_history": results[0][2],
        "comm_per_rank": _per_rank(stats, p),
        "total_time": report["total_wall_s"],
    }


def _per_rank(stats: CommStats, p: int) -> CommStats:
    out = CommStats()
    out.p2p_messages = stats.p2p_messages // max(p, 1)
    out.p2p_bytes = stats.p2p_bytes // max(p, 1)
    out.collective_calls = {k: v // max(p, 1) for k, v in stats.collective_calls.items()}
    out.collective_bytes = {k: v / max(p, 1) for k, v in stats.collective_bytes.items()}
    return out


def model_weak_scaling(
    core_counts: Sequence[int],
    elements_per_core: int,
    steps: int,
    comm_template: CommStats,
    flops_per_element_step: float = ADV_FLOPS_PER_ELEMENT_STEP,
    machine: MachineModel = RANGER,
) -> list[dict]:
    """Model isogranular scaling: per-rank work fixed, comm priced at P.

    ``comm_template`` is a measured per-rank tally at the executed scale
    (payloads per collective stay ~constant under weak scaling — the
    surface-to-volume property).  Returns one row per core count with
    modeled compute/comm seconds and parallel efficiency vs P = 1.
    """
    t_flops = machine.t_flops(flops_per_element_step * elements_per_core * steps)
    rows = []
    t1 = None
    for p in core_counts:
        t_comm = machine.t_comm(comm_template, p)
        total = t_flops + t_comm
        if t1 is None:
            t1 = total
        rows.append(
            {
                "cores": p,
                "elements": p * elements_per_core,
                "t_compute": t_flops,
                "t_comm": t_comm,
                "t_total": total,
                "efficiency": t1 / total,
            }
        )
    return rows


def model_strong_scaling(
    core_counts: Sequence[int],
    total_elements: int,
    steps: int,
    comm_template: CommStats,
    flops_per_element_step: float = ADV_FLOPS_PER_ELEMENT_STEP,
    machine: MachineModel = RANGER,
) -> list[dict]:
    """Model fixed-size scaling: per-rank work shrinks 1/P, per-rank
    surface communication shrinks ~P^{-2/3}, collective latency grows
    log P.  Speedups are measured against the first core count."""
    rows = []
    t_base = None
    p0 = core_counts[0]
    for p in core_counts:
        work = total_elements / p
        t_flops = machine.t_flops(flops_per_element_step * work * steps)
        # scale measured per-rank payload volumes by the surface ratio
        scaled = CommStats()
        ratio = (p0 / p) ** (2.0 / 3.0)
        scaled.p2p_messages = comm_template.p2p_messages
        scaled.p2p_bytes = int(comm_template.p2p_bytes * ratio)
        scaled.collective_calls = dict(comm_template.collective_calls)
        scaled.collective_bytes = {
            k: v * ratio for k, v in comm_template.collective_bytes.items()
        }
        t_comm = machine.t_comm(scaled, p)
        total = t_flops + t_comm
        if t_base is None:
            t_base = total
        rows.append(
            {
                "cores": p,
                "t_total": total,
                "speedup": t_base / total * p0,
                "ideal": p,
                "efficiency": (t_base / total * p0) / p,
            }
        )
    return rows
