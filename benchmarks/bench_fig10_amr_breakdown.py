"""Figure 10 (table): AMR timing breakdown vs solve time for the full
mantle convection code.

Paper: per adaptation step (= per 16 time steps), every AMR function
(CoarsenTree/RefineTree, BalanceTree, PartitionTree, ExtractMesh,
InterpolateFields/TransferFields, MarkElements) costs fractions of a
second while the solve costs hundreds of seconds; the AMR/solve ratio is
below 1% at every core count.

Executed: the serial RHEA loop with the per-function AMR timings from the
Figure-4 driver (its ``amr/*`` obs phases), against the Stokes+transport
solve time (``stokes`` + ``advection``) of the same cycle."""

import numpy as np

from repro import obs
from repro.perf import format_table
from repro.rhea import MantleConvection, RheaConfig


#: the Figure-4 functions of the serial driver, as obs phase paths
AMR_FUNCS = ["mark", "coarsen", "refine", "balance", "extract_mesh", "interpolate"]


def run_cycles(n_cycles=2, level=3):
    """One :class:`~repro.obs.PhaseTimer` per ``sim.run(1)``; returns the
    simulation and the per-cycle phase results."""
    cfg = RheaConfig(
        Ra=1e5, initial_level=level, min_level=2, max_level=level + 2,
        adapt_every=4, picard_iterations=1, stokes_tol=1e-6,
        target_elements=int(8**level * 1.3),
    )
    sim = MantleConvection(cfg)
    per_cycle = []
    for _ in range(n_cycles):
        with obs.attached(obs.PhaseTimer(record_events=False)) as timer:
            sim.run(1)
        per_cycle.append(timer.results())
    return sim, per_cycle


def test_fig10_amr_vs_solve(record_table, benchmark):
    sim, per_cycle = benchmark.pedantic(run_cycles, rounds=1, iterations=1)
    rows = []
    for i, (d, res) in enumerate(zip(sim.history, per_cycle)):
        def t(name):
            return res[f"amr/{name}"]["wall_s"]

        amr = sum(t(k) for k in AMR_FUNCS)
        solve = res["stokes"]["wall_s"] + res["advection"]["wall_s"]
        rows.append(
            [
                i + 1, d.n_elements,
                round(t("mark"), 4),
                round(t("coarsen") + t("refine"), 4),
                round(t("balance"), 4),
                round(t("extract_mesh"), 4),
                round(t("interpolate"), 4),
                round(solve, 3),
                f"{100 * amr / solve:.2f}%",
            ]
        )
    table = format_table(
        ["cycle", "#elem", "MarkE", "Coars+Refine", "BalanceT", "ExtractM", "InterpF", "solve s", "AMR/solve"],
        rows,
        title="Fig. 10 — per-adaptation-step AMR timings (s) vs solve time, full mantle convection",
    )
    table += (
        "\npaper: AMR/solve < 1% at every core count (1 to 16,384); in this"
        "\nPython build the interpreter inflates tree/mesh operations, so the"
        "\nratio lands higher but stays a small fraction of the solve.\n"
    )
    # shape assertion: AMR is a minor cost next to the implicit solve
    for r in rows:
        ratio = float(r[-1].rstrip("%"))
        assert ratio < 50.0
    record_table("fig10_amr_breakdown", table)
