"""Figure 9: AMG preconditioner scalability — variable-viscosity FEM
Poisson on an adapted mesh vs 7-point Laplace on a regular grid.

Paper: one AMG setup plus 160 V-cycles, isogranular in problem size; the
regular-grid Laplace is cheaper in absolute time but shows the *same*
scaling trend as the harder adapted-mesh variable-coefficient operator —
so the variable-viscosity preconditioner cannot be expected to scale
better than plain AMG does.

Executed: both operators at increasing sizes on this host, one setup
plus the stationary V-cycle iteration to 1e-8
(:meth:`SmoothedAggregationAMG.solve`).  Asserted: every case builds a
multilevel hierarchy of bounded operator complexity, and the V-cycle
count stays flat within each family (the scalability the figure shows);
seconds are read from obs phases and printed."""

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.fem import apply_dirichlet, assemble_scalar
from repro.fem.hexops import ElementOps
from repro.mesh import extract_mesh
from repro.octree import LinearOctree, balance
from repro.solvers import SmoothedAggregationAMG

from .harness import format_table

OPS = ElementOps()


def laplace_7pt(n):
    e = np.ones(n)
    T = sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])
    I = sp.identity(n)
    return sp.csr_matrix(
        sp.kron(sp.kron(T, I), I) + sp.kron(sp.kron(I, T), I) + sp.kron(sp.kron(I, I), T)
    )


def fem_poisson(level, seed=0, contrast=1e4):
    rng = np.random.default_rng(seed)
    tree = LinearOctree.uniform(level)
    tree = tree.refine(rng.random(len(tree)) < 0.2)
    tree = balance(tree, "corner").tree
    mesh = extract_mesh(tree)
    z = mesh.element_centers()[:, 2]
    eta = np.exp(np.log(contrast) * z)
    K = assemble_scalar(mesh, OPS.stiffness(mesh.element_sizes(), eta))
    bdofs = mesh.dof_of_node[np.flatnonzero(mesh.boundary_node_mask())]
    K, _ = apply_dirichlet(K, None, np.unique(bdofs[bdofs >= 0]))
    return sp.csr_matrix(K)


def test_fig09_amg_comparison():
    cases = [("laplace 7pt", laplace_7pt(n)) for n in (8, 13, 18)]
    cases += [("var-visc FEM", fem_poisson(level)) for level in (3, 4)]
    rows, vcycles = [], {}
    for name, A in cases:
        with obs.attached(obs.PhaseTimer(record_events=False)) as timer:
            with obs.phase("setup"):
                amg = SmoothedAggregationAMG(A)
            with obs.phase("solve"):
                _, its, converged = amg.solve(np.ones(A.shape[0]), tol=1e-8)
        res = timer.results()
        assert converged
        assert amg.n_levels >= 2  # a V-cycle, not a direct solve
        assert amg.operator_complexity < 5.0
        vcycles.setdefault(name, []).append(its)
        rows.append([name, A.shape[0], amg.n_levels, round(amg.operator_complexity, 2),
                     its, round(res["setup"]["wall_s"], 3), round(res["solve"]["wall_s"], 3)])
    print(format_table(
        ["operator", "n", "levels", "op cx", "V-cycles to 1e-8", "setup s", "solve s"],
        rows,
        title="Fig. 9 — AMG setup + V-cycles: 7-pt Laplace vs variable-viscosity adapted FEM Poisson",
    ))

    # shape: both families keep the V-cycle count flat as n grows
    for its in vcycles.values():
        assert max(its) <= 1.5 * min(its)
