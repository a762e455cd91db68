"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. **Balance connectivity** (face / edge / corner): the paper balances
   faces+edges; the mesh pipeline here uses full corner balance.  How many
   extra elements does each stronger condition cost?
2. **Weighted vs unweighted SFC partition**: PARTITIONTREE cuts the curve
   by element count; with heterogeneous per-element cost (e.g. elements in
   yielding zones doing Picard work), weighting the cut restores load
   balance.
3. **Preconditioner ablation**: MINRES on the Stokes system with the full
   block preconditioner (the driver's geometric multigrid V-cycle +
   viscosity-weighted mass) vs a diagonal-only preconditioner — the
   paper's claim that the multigrid + viscosity-weighted-mass structure
   is what keeps iterations flat.
"""

import numpy as np

from repro.fem import ElementOps, StokesSystem, apply_dirichlet, assemble_vector
from repro.mesh import extract_mesh
from repro.octree import LinearOctree, balance
from repro.parallel import run_spmd
from repro.perf import format_table
from repro.solvers import GMGStokesPreconditioner, minres


def adapted_tree(seed=0, rounds=3, frac=0.25):
    rng = np.random.default_rng(seed)
    tree = LinearOctree.uniform(2)
    for _ in range(rounds):
        tree = tree.refine(rng.random(len(tree)) < frac)
    return tree


def test_ablation_balance_connectivity(record_table, benchmark):
    tree = benchmark.pedantic(adapted_tree, rounds=1, iterations=1)
    rows = []
    n_face = None
    for conn in ("face", "edge", "corner"):
        res = balance(tree, conn)
        if conn == "face":
            n_face = len(res.tree)
        rows.append(
            [conn, len(tree), len(res.tree), res.rounds,
             f"{100 * (len(res.tree) / n_face - 1):.1f}%"]
        )
    table = format_table(
        ["connectivity", "before", "after", "ripple rounds", "vs face"],
        rows,
        title="Ablation — 2:1 balance connectivity cost (paper uses face+edge; mesh pipeline uses corner)",
    )
    # stronger balance costs a bounded premium (tens of percent on this
    # adversarial random tree; far less on smooth solution-driven meshes)
    n_corner = rows[-1][2]
    assert n_corner <= 2.0 * n_face
    record_table("ablation_balance", table)


def test_ablation_weighted_partition(record_table, benchmark):
    """Unweighted cuts equalize counts but not cost; weighted cuts fix it."""

    def kernel(comm):
        from repro.octree import new_tree, partition_tree, refine_tree

        pt = new_tree(comm, 2)
        mask = np.zeros(len(pt), dtype=bool)
        if comm.rank == 0:
            mask[:] = True
        pt = refine_tree(pt, mask)
        # cost model: global first half of the curve is 10x as expensive
        def costs(pt):
            offset = comm.exscan(len(pt))
            total = pt.global_count()
            g = offset + np.arange(len(pt))
            return np.where(g < total // 2, 10.0, 1.0)

        pt_u, _ = partition_tree(pt)
        cost_u = comm.allgather(float(costs(pt_u).sum()))
        pt_w, _ = partition_tree(pt, weights=costs(pt))
        cost_w = comm.allgather(float(costs(pt_w).sum()))
        return cost_u, cost_w

    cost_u, cost_w = benchmark.pedantic(
        lambda: run_spmd(4, kernel)[0], rounds=1, iterations=1
    )
    imb_u = max(cost_u) / (sum(cost_u) / len(cost_u))
    imb_w = max(cost_w) / (sum(cost_w) / len(cost_w))
    table = format_table(
        ["strategy", "per-rank cost", "imbalance (max/avg)"],
        [
            ["count-weighted", " ".join(f"{c:.0f}" for c in cost_u), round(imb_u, 2)],
            ["cost-weighted", " ".join(f"{c:.0f}" for c in cost_w), round(imb_w, 2)],
        ],
        title="Ablation — PARTITIONTREE with and without per-element weights",
    )
    assert imb_w < imb_u
    assert imb_w < 1.3
    record_table("ablation_partition", table)


def test_ablation_stokes_preconditioner(record_table, benchmark):
    """Full block preconditioner vs naive diagonal scaling."""
    tree = balance(adapted_tree(seed=5, rounds=2), "corner").tree
    mesh = extract_mesh(tree)
    z = mesh.element_centers()[:, 2]
    eta = np.exp(np.log(1e4) * z)
    c = mesh.node_coords()
    f = np.zeros((mesh.n_nodes, 3))
    f[:, 2] = np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 2])
    st = StokesSystem(mesh, eta, f)
    b = st.rhs()

    prec = GMGStokesPreconditioner(st)
    full = benchmark.pedantic(
        lambda: minres(st.matvec, b, M=prec.apply, tol=1e-6, maxiter=1500),
        rounds=1, iterations=1,
    )

    # Jacobi: the diagonal of the assembled, Dirichlet-eliminated strain
    # stiffness A beside the Schur diagonal
    A = assemble_vector(mesh, ElementOps().strain_stiffness(mesh.element_sizes(), eta))
    A = apply_dirichlet(A, None, st.bc.dofs)[0]
    diag = np.concatenate([A.diagonal(), st.schur_diagonal()])
    diag = np.where(np.abs(diag) > 1e-14, np.abs(diag), 1.0)
    jacobi = minres(st.matvec, b, M=lambda r: r / diag, tol=1e-6, maxiter=1500)

    table = format_table(
        ["preconditioner", "iterations", "converged"],
        [
            ["block (GMG + 1/eta mass)", full.iterations, full.converged],
            ["Jacobi (diagonal)", jacobi.iterations, jacobi.converged],
        ],
        title="Ablation — Stokes preconditioner structure (10^4 viscosity contrast)",
    )
    assert full.converged
    assert full.iterations < jacobi.iterations or not jacobi.converged
    record_table("ablation_preconditioner", table)
