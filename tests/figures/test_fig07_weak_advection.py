"""Figure 7: weak scalability of AMR advection-diffusion, 1 -> 62,464 cores.

Paper: at ~131K elements/core, the per-function breakdown shows the PDE
time integration dominating everywhere; EXTRACTMESH is the costliest AMR
function (up to ~6%), all AMR together stays <= 11%, and parallel
efficiency stays above 50% out to 62,464 cores.

Executed: SPMD pipeline at P in {1, 2, 4, 8} with fixed per-rank element
target — real per-function timings and the AMR fraction, read from the
ranks' obs phase report (``amr/*`` functions, ``advection``) and printed;
the asserted quantities are the element counts and phase entries.
Modeled: the machine model prices the measured per-rank communication at
the paper's core schedule to produce the efficiency curve."""

from repro.parallel import RANGER, CommStats

from .harness import (
    ADV_FLOPS_PER_ELEMENT_STEP,
    format_table,
    measured_pipeline_run,
    model_weak_scaling,
    work_tally,
)


def test_fig07_weak_scaling_breakdown():
    per_rank_target, cycles = 220, 2
    executed_rows = []
    for p in [1, 2, 4, 8]:
        out = measured_pipeline_run(
            p,
            coarse_level=2,
            max_level=6,
            target=per_rank_target * p,
            cycles=cycles,
            steps_per_cycle=16,
        )
        rep = out["report"]
        # every rank adapts and advances once per cycle
        for path in ("amr/mark", "amr/partition", "advection"):
            assert rep["phases"][path]["count"] == p * cycles, path
        assert rep["phases"]["advection"]["counters"]["advection_steps"] == p * cycles * 16
        # MarkElements holds the global count near the isogranular target
        assert abs(out["n_elements"] / (per_rank_target * p) - 1.0) < 0.1
        executed_rows.append(
            [p, out["n_elements"], round(rep["total_wall_s"], 3),
             round(100 * rep["amr_fraction"], 1)]
            + [round(rep["phases"][k]["pct_of_wall"], 1)
               for k in ("amr/extract_mesh", "amr/balance", "amr/partition", "advection")]
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
        ["cores", "#elem", "modeled s", "efficiency"],
        [
            [r["cores"], f'{r["elements"]:.3g}', round(r["t_total"], 2),
             round(r["efficiency"], 3)]
            for r in rows
        ],
        title="Fig. 7 (bottom) — modeled parallel efficiency at 131K elem/core (Ranger model)",
    )

    # modeled AMR share at paper scale: per-element AMR work (tree/mesh
    # touches per element per adapt) is tiny compared to 32 explicit
    # steps of PDE work
    amr = RANGER.t_total(work_tally(comm, 200.0 * 131000), 62464)
    pde = RANGER.t_total(
        work_tally(CommStats(), ADV_FLOPS_PER_ELEMENT_STEP * 131000 * 32), 62464
    )
    table += f"\nmodeled AMR share at 62,464 cores: {100 * amr / (amr + pde):.1f}% (paper: <= 11%)\n"
    print(table)

    # shape assertions: the modeled AMR share is small, and modeled
    # parallel efficiency stays above the paper's 50% at 62,464 cores
    assert amr / (amr + pde) <= 0.15
    assert rows[-1]["efficiency"] > 0.5
