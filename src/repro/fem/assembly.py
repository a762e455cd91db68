"""Global sparse assembly through the constraint-folded element gather.

Every assembled operator is one Galerkin product

    A = G_r^T · blkdiag(A_e) · G_c

of the element matrices (produced by :class:`~repro.fem.hexops.ElementOps`)
with the mesh's element gathers: row ``k`` of a gather ``G`` is the row
of the hanging-node constraint operator ``Z`` (``Z3`` for the
component-blocked velocity) of element-local dof ``k``, so the product
acts on independent dofs directly — the matrix form of the element-level
constraint enforcement described in Section IV ("algebraic constraints on
hanging nodes impose continuity").  ``blkdiag(A_e)`` is a CSR matrix whose
data array is a view of the ``(ne, r, c)`` element matrices, and scipy's
sparse-sparse product (Gustavson, row by row) sums the duplicates as it
goes: no COO triple, no sort plan and no separate ``Z^T A Z`` product.
The unconstrained operators (``constrain=False``) use the plain node
incidence as their gather.

Velocity operators use a component-blocked layout: dof ``a * n + i`` is
component ``a`` at independent node ``i``.

The gathers — element-major here, element-minor for the element-kernel
applies of :mod:`repro.fem.matfree` — are one :class:`Gather` type,
memoized per mesh through :mod:`repro.mesh.opcache`, so repeated
assembly (Picard passes, time steps between adaptations) only recomputes
coefficient data.  Memoization is value-transparent: results are bitwise
identical with the cache disabled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ..mesh import Mesh
from ..mesh.opcache import operator_cache

__all__ = [
    "assemble_scalar",
    "assemble_vector",
    "assemble_divergence",
    "assemble_rhs",
    "lumped_mass",
    "apply_dirichlet",
    "Z3",
    "vector_dofs",
    "Gather",
    "gather",
    "galerkin",
    "assembly_counts",
    "reset_assembly_counts",
]

#: global sparse-assembly call counters, keyed by operator kind.  The
#: matrix-free paths (tensor applies, GMG preconditioning) are certified
#: assembly-free by resetting these and asserting they stay zero.
_ASSEMBLY_COUNTS = {"scalar": 0, "vector": 0, "divergence": 0}


def assembly_counts() -> dict:
    """Snapshot of the global sparse-assembly call counters."""
    return dict(_ASSEMBLY_COUNTS)


def reset_assembly_counts() -> None:
    """Zero the global sparse-assembly call counters."""
    for k in _ASSEMBLY_COUNTS:
        _ASSEMBLY_COUNTS[k] = 0


class Gather(NamedTuple):
    """A CSR gather ``G`` (independent dofs -> element-local values) and
    its transpose scatter ``GT``, with hanging-node constraints — and
    optionally a Dirichlet column mask — folded in.  A tuple, so the
    operator cache's freeze guard fingerprints every array in it."""

    G: sp.csr_matrix
    GT: sp.csr_matrix
    #: 0 on Dirichlet-constrained dofs (columns zeroed in ``G``), else 1
    mask: np.ndarray | None = None
    #: ``1 - mask``: the identity rows of a masked apply
    imask: np.ndarray | None = None


def gather(G: sp.spmatrix, mask: np.ndarray | None = None) -> Gather:
    """The :class:`Gather` of ``G``: sorted CSR and its CSR transpose."""
    G = sp.csr_matrix(G)
    G.sort_indices()
    GT = G.T.tocsr()
    GT.sort_indices()
    return Gather(G, GT, mask, None if mask is None else 1.0 - mask)


def vector_dofs(mesh: Mesh) -> np.ndarray:
    """(ne, 24) component-blocked global velocity dofs of each element."""

    def build():
        n = mesh.n_nodes
        en = mesh.element_nodes
        return np.concatenate([a * n + en for a in range(3)], axis=1)

    return operator_cache(mesh).get("vector_dofs", build)


def Z3(mesh: Mesh) -> sp.csr_matrix:
    """Constraint operator for component-blocked vector fields (cached)."""
    return operator_cache(mesh).get(
        "Z3", lambda: sp.block_diag([mesh.Z] * 3, format="csr")
    )


def _element_gather(mesh: Mesh, kind: str) -> Gather:
    """The element-major gather of ``mesh`` (cached): row ``8 e + i``
    (``24 e + 8 a + i`` for ``"vector"``) is the ``Z`` row (``Z3`` row of
    component ``a``; for ``"node"`` the unit row) of vertex ``i`` of
    element ``e``."""

    def build():
        if kind == "vector":
            return gather(Z3(mesh)[vector_dofs(mesh).ravel()])
        Z = mesh.Z if kind == "scalar" else sp.identity(mesh.n_nodes, format="csr")
        return gather(Z[mesh.element_nodes.ravel()])

    return operator_cache(mesh).get(("gather", kind), build)


def _block_diagonal(elem_mats: np.ndarray) -> sp.csr_matrix:
    """``blkdiag(A_e)`` of ``(ne, r, c)`` element matrices as CSR; its
    data array is a view of ``elem_mats``."""
    ne, r, c = elem_mats.shape
    idx = np.int32 if ne * r * c < 2**31 else np.int64
    first = np.arange(0, ne * c, c, dtype=idx)  # first column of each block
    indices = (first[:, None, None] + np.arange(c, dtype=idx)).repeat(r, axis=1)
    return sp.csr_matrix(
        (
            np.ascontiguousarray(elem_mats, dtype=np.float64).reshape(-1),
            indices.reshape(-1),
            np.arange(0, ne * r * c + 1, c, dtype=idx),
        ),
        shape=(ne * r, ne * c),
        copy=False,
    )


def galerkin(rows: Gather, elem_mats: np.ndarray, cols: Gather) -> sp.csr_matrix:
    """``rows.GT @ blkdiag(elem_mats) @ cols.G`` in canonical CSR (sorted
    indices, duplicates summed, exact zeros dropped)."""
    A = rows.GT @ (_block_diagonal(elem_mats) @ cols.G)
    A.sort_indices()
    return A


def assemble_scalar(mesh: Mesh, elem_mats: np.ndarray, constrain: bool = True) -> sp.csr_matrix:
    """Assemble (ne, 8, 8) element matrices into a global scalar operator.

    With ``constrain=True`` (default) the result acts on independent dofs
    (``Z^T A Z``); otherwise on all mesh nodes.
    """
    if elem_mats.shape != (mesh.n_elements, 8, 8):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["scalar"] += 1
    g = _element_gather(mesh, "scalar" if constrain else "node")
    return galerkin(g, elem_mats, g)


def assemble_vector(mesh: Mesh, elem_mats: np.ndarray) -> sp.csr_matrix:
    """Assemble (ne, 24, 24) component-blocked velocity element matrices
    into the constrained ``(3 n, 3 n)`` operator.

    Local dof ``8a + i`` is component ``a`` at vertex ``i``.
    """
    if elem_mats.shape != (mesh.n_elements, 24, 24):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["vector"] += 1
    g = _element_gather(mesh, "vector")
    return galerkin(g, elem_mats, g)


def assemble_divergence(mesh: Mesh, elem_B: np.ndarray) -> sp.csr_matrix:
    """Assemble (ne, 8, 24) pressure-velocity coupling blocks into the
    constrained (n, 3 n) divergence operator."""
    if elem_B.shape != (mesh.n_elements, 8, 24):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["divergence"] += 1
    return galerkin(
        _element_gather(mesh, "scalar"), elem_B, _element_gather(mesh, "vector")
    )


def assemble_rhs(mesh: Mesh, elem_vecs: np.ndarray, constrain: bool = True) -> np.ndarray:
    """Assemble (ne, 8) element load vectors into a global rhs, or
    (nb, ne, 8) ones into the columns of an (n, nb) rhs."""
    if elem_vecs.ndim not in (2, 3) or elem_vecs.shape[-2:] != (mesh.n_elements, 8):
        raise ValueError("element vector array has wrong shape")
    nb = 1 if elem_vecs.ndim == 2 else len(elem_vecs)
    slots = mesh.element_nodes.ravel() + mesh.n_nodes * np.arange(nb)[:, None]
    b = np.bincount(
        slots.ravel(), weights=elem_vecs.ravel(), minlength=nb * mesh.n_nodes
    ).reshape(nb, mesh.n_nodes).T
    if elem_vecs.ndim == 2:
        b = b[:, 0]
    if not constrain:
        return b
    return mesh.Z.T @ b


def lumped_mass(mesh: Mesh, elem_mass: np.ndarray, constrain: bool = True) -> np.ndarray:
    """Row-sum lumped mass vector from (ne, 8, 8) element mass matrices.

    The lumped operator is consistent with the constrained Galerkin mass:
    rows of ``Z`` sum to one, so the row sums of ``Z^T M Z`` are ``Z^T``
    applied to the scattered element row sums — no matrix is assembled.
    """
    d = assemble_rhs(mesh, elem_mass.sum(axis=2), constrain=constrain)
    if np.any(d <= 0):
        raise AssertionError("non-positive lumped mass entry")
    return d


def apply_dirichlet(
    A: sp.csr_matrix,
    b: np.ndarray | None,
    dofs: np.ndarray,
    values: np.ndarray | float = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """Impose Dirichlet conditions symmetrically.

    Rows and columns of constrained dofs are dropped (column elimination
    moves the known values to the rhs), the diagonal is set to 1 and the
    rhs entries to the prescribed values.  Returns new ``(A, b)``; ``A``
    is masked entry by entry, with no ``D A D`` product.
    """
    A = sp.csr_matrix(A)
    dofs = np.asarray(dofs)
    if dofs.dtype == bool:
        dofs = np.flatnonzero(dofs)
    n = A.shape[0]
    vals = np.zeros(n, dtype=np.float64)
    vals[dofs] = values
    if b is not None:
        b = b - A @ vals
    free = np.ones(n, dtype=bool)
    free[dofs] = False
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    keep = free[rows] & free[A.indices]
    indptr = np.zeros(n + 1, dtype=A.indptr.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    A = sp.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=A.shape)
    A = A + sp.diags((~free).astype(np.float64), format="csr")
    if b is not None:
        b[dofs] = vals[dofs]
    return A, b
