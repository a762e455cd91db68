"""Figure 2 (table): weak scalability of the variable-viscosity Stokes
solver — MINRES iteration counts vs problem size.

Paper: iterations stay in a narrow band (47-68) while the problem grows
from 271K dof on 1 core to 2.17B dof on 8192 cores, despite severe
viscosity heterogeneity.  We execute shrunk problems (the largest sizes
are modeled, not run — this is a pure-Python reproduction) and verify the
*shape*: iteration counts essentially flat under mesh refinement with a
4-orders-of-magnitude viscosity contrast; simulated core counts are the
paper's weak-scaling schedule (~65K elements/core).  The viscous block is
preconditioned by the driver's geometric multigrid where the paper used
BoomerAMG (DESIGN.md section 2)."""

import numpy as np

from repro.fem import StokesSystem
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.solvers import GMGStokesPreconditioner, minres

from .harness import format_table


def layered_viscosity(mesh, contrast=1e4):
    """Smooth vertical viscosity variation over `contrast` orders."""
    z = mesh.element_centers()[:, 2]
    return np.exp(np.log(contrast) * z) / np.sqrt(contrast)


def buoyancy(mesh):
    c = mesh.node_coords()
    f = np.zeros((mesh.n_nodes, 3))
    f[:, 2] = np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1]) * np.cos(
        np.pi * c[:, 2]
    )
    return f


def solve_case(level, seed):
    rng = np.random.default_rng(seed)
    tree = Forest.uniform(unit_cube(), level)
    tree = tree.refine(rng.random(len(tree)) < 0.15)
    tree = tree.balance("corner")[0]
    mesh = extract_mesh(tree)
    st = StokesSystem(mesh, layered_viscosity(mesh), buoyancy(mesh))
    prec = GMGStokesPreconditioner(st)
    res = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-6, maxiter=500)
    assert res.converged
    return mesh.n_elements, 4 * mesh.n_independent, res.iterations


def test_fig02_stokes_weak_scaling():
    rows = []
    # executed sizes (levels 1..3); paper's schedule kept per-core size
    # at ~65K elements — we report the equivalent core count for shape
    iterations = []
    for i, lvl in enumerate([1, 2, 3]):
        ne, dof, its = solve_case(lvl, i)
        rows.append([f"2^{3 * lvl}", ne, dof, its, "executed"])
        iterations.append(its)
    # paper reference band for comparison
    paper = [
        (1, "67.2K", "271K", 57),
        (8, "514K", "2.06M", 47),
        (64, "4.20M", "16.8M", 51),
        (512, "33.2M", "133M", 60),
        (4096, "267M", "1.07B", 67),
        (8192, "539M", "2.17B", 68),
    ]
    table = format_table(
        ["size", "#elem", "#dof", "MINRES its", "kind"],
        rows,
        title="Fig. 2 — variable-viscosity Stokes weak scaling (executed, shrunk sizes)",
    )
    table += "\n\npaper-reported band (Ranger):\n"
    table += format_table(
        ["#cores", "#elem", "#dof", "MINRES its"], [list(r) for r in paper]
    )
    print(table)
    # shape assertion: iteration growth bounded like the paper's band
    # (paper: max 68 / min 47 = 1.45x over 8192x size growth)
    assert max(iterations) <= 2.0 * min(iterations)
