"""Assembly through a COO triple and node numbering, and matrix-based
lumping.

``repro.fem.assembly`` assembles every operator as one Galerkin product
``G^T blkdiag(A_e) G`` over the mesh's constraint-folded element gather.
The functions here are the paths that replaced:

- ``coo_scatter`` merges a ``(rows, cols, data)`` triple into CSR by
  lexsorting the pattern and summing duplicates with ``np.add.reduceat``
  (the sort plan the solver used to cache per mesh);
- ``coo_scalar`` / ``coo_vector`` / ``coo_divergence`` scatter element
  matrices in node numbering and fold the constraints with ``Z^T A Z``;
- ``assemble_owned_split`` is the owned-element transport build that
  scattered elements without a hanging corner straight into dof numbering
  and only the others through node numbering and the triple product;
  ``assemble_owned_nodal`` is the node-numbered scatter of every owned
  element before that;
- ``poisson_blocks_dkd`` masks each velocity component's Dirichlet dofs
  with the products ``D K D + (I - D)``;
- ``node_scalar`` assembles on all mesh nodes, the Galerkin product
  over the plain node incidence (the unconstrained ``assemble_scalar``
  of before); ``node_mass`` is the nodal mass the Stokes load
  ``Z^T (M f)`` was applied through before ``StokesSystem`` scattered
  ``vol_e MMM f_e`` through the element gather.

The transport solver (``repro.fem.advection.AdvectionDiffusion``) lumps
its mass by applying ``Z^T`` to the scattered element row sums (rows of
``Z`` sum to one); the ``lumped_*_assembled`` functions assemble the
constrained mass and sum its rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem import Z3, assemble_scalar, vector_dofs
from repro.fem.assembly import galerkin, gather
from repro.fem.hexops import ElementOps
from repro.fem.stokes import velocity_bcs


def coo_scatter(rows, cols, data, shape) -> sp.csr_matrix:
    """CSR of the triple: lexsorted pattern, duplicates summed in input
    order."""
    rows, cols = np.ravel(rows), np.ravel(cols)
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    indptr = np.r_[0, np.cumsum(np.bincount(r[starts], minlength=shape[0]))]
    d = np.add.reduceat(np.ravel(data)[order], starts)
    return sp.csr_matrix((d, c[starts], indptr), shape=shape)


def _scatter(row_dofs, col_dofs, elem, shape) -> sp.csr_matrix:
    k, m = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, m, axis=1)
    cols = np.tile(col_dofs, (1, k))
    return coo_scatter(rows, cols, elem, shape)


def coo_scalar(mesh, elem_mats: np.ndarray, constrain: bool = True) -> sp.csr_matrix:
    en = mesh.element_nodes
    A = _scatter(en, en, elem_mats, (mesh.n_nodes,) * 2)
    return sp.csr_matrix(mesh.Z.T @ A @ mesh.Z) if constrain else A


def coo_vector(mesh, elem_mats: np.ndarray) -> sp.csr_matrix:
    vd = vector_dofs(mesh)
    A = _scatter(vd, vd, elem_mats, (3 * mesh.n_nodes,) * 2)
    return sp.csr_matrix(Z3(mesh).T @ A @ Z3(mesh))


def coo_divergence(mesh, elem_B: np.ndarray) -> sp.csr_matrix:
    shape = (mesh.n_nodes, 3 * mesh.n_nodes)
    B = _scatter(mesh.element_nodes, vector_dofs(mesh), elem_B, shape)
    return sp.csr_matrix(mesh.Z.T @ B @ Z3(mesh))


def node_scalar(mesh, elem_mats: np.ndarray) -> sp.csr_matrix:
    """``(ne, 8, 8)`` element matrices assembled on all mesh nodes: the
    Galerkin product over the node incidence, whose row ``8 e + i`` is
    the unit row of vertex ``i`` of element ``e``."""
    g = gather(sp.identity(mesh.n_nodes, format="csr")[mesh.element_nodes.ravel()])
    return galerkin(g, elem_mats, g)


def node_mass(mesh) -> sp.csr_matrix:
    """The unconstrained consistent nodal mass ``M``: the Stokes
    body-force load of a nodal field ``f`` is ``Z^T (M f)``."""
    return node_scalar(mesh, ElementOps().mass(mesh.element_sizes()))


def dense(elem_mats) -> np.ndarray:
    """The ``(ne, r, c)`` array of element matrices given through
    ``take`` (a dense array or ``ElementMatrices``)."""
    return elem_mats.take(np.arange(elem_mats.shape[0]), axis=0)


def assemble_owned_split(pm, elem_mats) -> sp.csr_matrix:
    """``Z^T A Z`` of a rank's owned elements as one COO -> CSR: hanging-
    free elements in dof numbering, the rest through ``Z^T A_h Z``."""
    elem_mats = dense(elem_mats)
    mesh = pm.mesh
    en = mesh.element_nodes[pm.owned_elements]
    dof = mesh.dof_of_node[en].astype(np.int32)
    free = (dof >= 0).all(axis=1)
    enh = en[~free]
    Ah = sp.csr_matrix(
        (
            elem_mats[~free].ravel(),
            (np.repeat(enh, 8, axis=1).ravel(), np.tile(enh, (1, 8)).ravel()),
        ),
        shape=(mesh.n_nodes, mesh.n_nodes),
    )
    hang = (mesh.Z.T @ Ah @ mesh.Z).tocoo()
    dof = dof[free]
    rows = np.concatenate([np.repeat(dof, 8, axis=1).ravel(), hang.row])
    cols = np.concatenate([np.tile(dof, (1, 8)).ravel(), hang.col])
    data = np.concatenate([elem_mats[free].ravel(), hang.data])
    return sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_independent,) * 2)


def assemble_owned_nodal(pm, elem_mats) -> sp.csr_matrix:
    """``Z^T A Z`` with ``A`` scattered from a rank's owned elements in the
    node numbering of its union mesh."""
    elem_mats = dense(elem_mats)
    mesh = pm.mesh
    en = mesh.element_nodes[pm.owned_elements]
    rows = np.repeat(en, 8, axis=1).ravel()
    cols = np.tile(en, (1, 8)).ravel()
    A = sp.csr_matrix((elem_mats.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2)
    return sp.csr_matrix(mesh.Z.T @ A @ mesh.Z)


def poisson_blocks_dkd(mesh, viscosity: np.ndarray, bc: str) -> list[sp.csr_matrix]:
    """The three Dirichlet-masked scalar Poisson blocks, each through the
    products ``D_a K D_a + (I - D_a)``."""
    K = coo_scalar(mesh, ElementOps().stiffness(mesh.element_sizes(), viscosity))
    blocks = []
    for dofs in velocity_bcs(mesh, bc).per_component:
        mask = np.ones(K.shape[0])
        mask[dofs] = 0.0
        D = sp.diags(mask)
        blocks.append(sp.csr_matrix(D @ K @ D + sp.diags(1.0 - mask)))
    return blocks


def lumped_mass_assembled(mesh, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of the assembled ``Z^T M Z``."""
    return np.asarray(assemble_scalar(mesh, elem_mass).sum(axis=1)).ravel()


def lumped_owned_assembled(pm, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of ``Z^T M Z`` assembled from a rank's owned elements on
    its union mesh (before the shared-dof sum-exchange)."""
    return np.asarray(assemble_owned_nodal(pm, elem_mass).sum(axis=1)).ravel()
