"""Quickstart: build an adapted octree mesh and solve a PDE on it.

Covers the core workflow in ~60 lines:

1. build and refine an octree (the one-tree forest), enforce 2:1 balance;
2. extract a hexahedral mesh with hanging-node constraints;
3. assemble and solve a variable-coefficient Poisson problem;
4. run one AMR cycle driven by an error indicator.

Run:  python examples/quickstart.py
"""

import numpy as np
import scipy.sparse.linalg as spla

from repro.amr import adapt_mesh
from repro.fem import apply_dirichlet, assemble_scalar
from repro.fem.hexops import ElementOps
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.rhea import gradient_indicator

# 1. octree: start uniform, refine toward the domain center, balance 2:1
tree = Forest.uniform(unit_cube(), 3)
centers = tree.octs.centers()
mask = np.linalg.norm(centers - 0.5, axis=1) < 0.3
tree, _ = tree.refine(mask).balance("corner")
print(f"octree: {len(tree)} leaves, levels {tree.octs.level.min()}..{tree.octs.level.max()}")

# 2. mesh extraction (hanging nodes become algebraic constraints)
mesh = extract_mesh(tree)
print(
    f"mesh: {mesh.n_elements} elements, {mesh.n_nodes} nodes "
    f"({int(mesh.hanging.sum())} hanging), {mesh.n_independent} dofs"
)

# 3. Poisson solve: -div(eta grad u) = 1, u = 0 on the boundary,
#    with a viscosity jump across z = 0.5
ops = ElementOps()
eta = np.where(mesh.element_centers()[:, 2] > 0.5, 100.0, 1.0)
K = assemble_scalar(mesh, ops.stiffness(mesh.element_sizes(), eta))
# the load of f = 1 is M 1 (rows of Z sum to one, so Z 1 is 1 on every node)
b = assemble_scalar(mesh, ops.mass(mesh.element_sizes())) @ np.ones(mesh.n_independent)
bdofs = mesh.dof_of_node[np.flatnonzero(mesh.boundary_node_mask())]
K, b = apply_dirichlet(K, b, np.unique(bdofs[bdofs >= 0]))
u = spla.spsolve(K.tocsc(), b)
print(f"Poisson solve: max u = {u.max():.5f}")

# 4. one AMR cycle: refine where the solution varies fastest
u_full = mesh.expand(u)
eta_ind = gradient_indicator(mesh, u_full)
new_mesh, fields, report = adapt_mesh(
    mesh, eta_ind, target=2 * mesh.n_elements, fields={"u": u_full}
)
print(
    f"AMR: {report.n_before} -> {report.n_after} elements "
    f"({report.n_refined} refined, {report.n_coarsened} coarsened, "
    f"{report.n_balance_added} from balance)"
)
print(f"transferred field max: {fields['u'].max():.5f}")
