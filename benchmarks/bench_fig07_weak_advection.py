"""Figure 7: weak scalability of AMR advection-diffusion, 1 -> 62,464 cores.

Paper: at ~131K elements/core, the per-function breakdown shows the PDE
time integration dominating everywhere; EXTRACTMESH is the costliest AMR
function (up to ~6%), all AMR together stays <= 11%, and parallel
efficiency stays above 50% out to 62,464 cores.

Executed: SPMD pipeline at P in {1, 2, 4, 8} with fixed per-rank element
target — real per-function timings and the AMR fraction, read from the
ranks' obs phase report (``amr/*`` functions, ``advection``).  Modeled: the
machine model prices the measured per-rank communication at the paper's
core schedule to produce the efficiency curve."""

import numpy as np

from repro.perf import (
    format_table,
    measured_pipeline_run,
    model_weak_scaling,
)

def test_fig07_weak_scaling_breakdown(record_table, benchmark):
    per_rank_target = 220
    executed_rows = []
    comm = None
    for p in [1, 2, 4, 8]:
        run = lambda: measured_pipeline_run(
            p,
            coarse_level=2,
            max_level=6,
            target=per_rank_target * p,
            cycles=2,
            steps_per_cycle=16,
        )
        out = benchmark.pedantic(run, rounds=1, iterations=1) if p == 8 else run()
        rep = out["report"]

        def pct(path):
            return round(rep["phases"][path]["pct_of_wall"], 1)

        executed_rows.append(
            [
                p,
                out["n_elements"],
                round(rep["total_wall_s"], 3),
                round(100 * rep["amr_fraction"], 1),
                pct("amr/extract_mesh"),
                pct("amr/balance"),
                pct("amr/partition"),
                pct("advection"),
            ]
        )
        comm = out["comm_per_rank"]

    table = format_table(
        ["ranks", "#elem", "wall s", "AMR %", "Extract %", "Balance %", "Partition %", "TimeInt %"],
        executed_rows,
        title="Fig. 7 (top) — executed per-function breakdown, isogranular SPMD runs",
    )
    table += (
        "\nNOTE: in this pure-Python build the tree/mesh functions carry"
        "\ninterpreter overhead that the numerical kernels (NumPy) do not,"
        "\nso the executed AMR share is inflated relative to compiled ALPS;"
        "\nthe modeled rows below price work and communication consistently.\n"
    )

    cores = [1, 16, 256, 1024, 4096, 16384, 32768, 62464]
    rows = model_weak_scaling(cores, 131000, 32, comm)
    table += "\n\n" + format_table(
        ["cores", "#elem", "compute s", "comm s", "total s", "efficiency"],
        [
            [r["cores"], f'{r["elements"]:.3g}', round(r["t_compute"], 2),
             round(r["t_comm"], 4), round(r["t_total"], 2), round(r["efficiency"], 3)]
            for r in rows
        ],
        title="Fig. 7 (bottom) — modeled parallel efficiency at 131K elem/core (Ranger model)",
    )

    # modeled AMR share at paper scale: per-element AMR work is tiny
    # compared to 32 explicit steps of PDE work
    from repro.parallel import RANGER

    amr_flops = 200.0 * 131000  # tree/mesh touches per element per adapt
    pde = RANGER.t_flops(600.0 * 131000 * 32)
    amr = RANGER.t_flops(amr_flops) + RANGER.t_comm(comm, 62464)
    table += f"\nmodeled AMR share at 62,464 cores: {100 * amr / (amr + pde):.1f}% (paper: <= 11%)\n"

    # shape assertions: time integration is a major component in every
    # executed run, the modeled AMR share is small, and modeled parallel
    # efficiency stays above the paper's 50% at 62,464 cores
    for row in executed_rows:
        assert row[7] > 5.0
    assert amr / (amr + pde) <= 0.15
    assert rows[-1]["efficiency"] > 0.5
    record_table("fig07_weak_advection", table)
