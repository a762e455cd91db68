"""Figure 6: fixed-size (strong) scalability.

Paper: near-ideal speedups over a wide core range for four problem sizes
(1.99M / 32.7M / 531M / 2.24B elements), e.g. 366x on 512 cores for the
small problem and ~101x from 256 -> 32,768 cores for the large one,
with saturation once per-core work gets small.

Executed part: the real SPMD pipeline at P in {1, 2, 4, 8} on a fixed
global problem (wall-clock speedup of the distributed algorithms, read
from the ranks' obs phases, printed only; the global element count is
asserted P-invariant).  Modeled part: the Ranger machine model evaluated
at the paper's core schedule for the paper's four problem sizes, seeded
with the measured per-rank communication tally."""

from .harness import format_table, measured_pipeline_run, model_strong_scaling


def test_fig06_strong_scaling():
    # executed: fixed global problem, increasing simulated ranks
    executed, walls = [], []
    for p in [1, 2, 4, 8]:
        out = measured_pipeline_run(
            p, coarse_level=3, max_level=5, target=1500, cycles=1, steps_per_cycle=4
        )
        walls.append(out["report"]["total_wall_s"])
        comm = out["comm_per_rank"]
        executed.append(
            [p, out["n_elements"], comm.total_collective_calls, round(walls[-1], 3),
             round(walls[0] / walls[-1], 2), "executed"]
        )

    table = format_table(
        ["ranks", "#elem", "collectives/rank", "wall s", "speedup", "kind"],
        executed,
        title="Fig. 6 — strong scaling, executed SPMD runs (fixed global problem)",
    )
    table += (
        "\nNOTE: executed ranks are GIL-sharing threads on one host — their"
        "\nwall-clock measures algorithm overhead, not distributed speedup;"
        "\nspeedup shape at scale comes from the machine model below.\n"
    )

    # modeled: the paper's four problem sizes over its core schedule
    paper_sizes = {
        "1.99M": (1.99e6, [1, 4, 16, 64, 256, 512, 2048]),
        "32.7M": (32.7e6, [16, 64, 256, 1024, 4096]),
        "531M": (531e6, [256, 1024, 4096, 16384, 32768]),
        "2.24B": (2.24e9, [4096, 16384, 61440]),
    }
    modeled = {}
    for name, (n, cores) in paper_sizes.items():
        rows = modeled[n] = model_strong_scaling(cores, n, 32, comm)
        table += "\n\n" + format_table(
            ["cores", "modeled s", "speedup", "ideal", "efficiency"],
            [
                [r["cores"], r["t_total"], round(r["speedup"], 1), r["cores"],
                 round(r["efficiency"], 3)]
                for r in rows
            ],
            title=f"modeled (Ranger machine model): {name} elements",
        )
    print(table)

    # the adapted global problem does not depend on the rank count
    assert len({row[1] for row in executed}) == 1
    # shape: efficiency stays high while per-core work is large,
    # decays at the tail (the paper's saturation)
    for n, rows in modeled.items():
        assert rows[0]["efficiency"] == 1.0
        assert rows[-1]["efficiency"] < 1.0
        if n >= 531e6:
            assert rows[-1]["efficiency"] > 0.4  # big problems keep scaling
