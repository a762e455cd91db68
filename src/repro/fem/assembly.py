"""Global sparse assembly with hanging-node constraint elimination.

Element matrices (produced by :class:`~repro.fem.hexops.ElementOps`) are
scattered into global CSR operators over *all* mesh nodes, then the
hanging-node constraint operator ``Z`` folds them onto independent dofs:
``A_c = Z^T A Z``.  This is the matrix form of the element-level constraint
enforcement described in Section IV ("algebraic constraints on hanging
nodes impose continuity").

Velocity operators use a component-blocked layout: dof ``a * n + i`` is
component ``a`` at independent node ``i``.

Everything mesh-derived — scatter index patterns, the COO -> CSR merge
order, the block-diagonal constraint operator ``Z3``, the vector dof maps
— is memoized per mesh through :mod:`repro.mesh.opcache`, so repeated
assembly (Picard passes, time steps between adaptations) only recomputes
coefficient data.  Memoization is value-transparent: results are bitwise
identical with the cache disabled.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..mesh import Mesh
from ..mesh.opcache import CachedScatter, operator_cache

__all__ = [
    "assemble_scalar",
    "assemble_vector",
    "assemble_divergence",
    "assemble_rhs",
    "lumped_mass",
    "apply_dirichlet",
    "Z3",
    "vector_dofs",
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


def _scalar_scatter(mesh: Mesh) -> CachedScatter:
    """COO -> CSR pattern for (ne, 8, 8) scalar element scatters."""

    def build():
        en = mesh.element_nodes
        k = en.shape[1]
        rows = np.repeat(en, k, axis=1).ravel()
        cols = np.tile(en, (1, k)).ravel()
        return CachedScatter(rows, cols, (mesh.n_nodes, mesh.n_nodes))

    return operator_cache(mesh).get("scatter_scalar", build)


def vector_dofs(mesh: Mesh) -> np.ndarray:
    """(ne, 24) component-blocked global velocity dofs of each element."""

    def build():
        n = mesh.n_nodes
        en = mesh.element_nodes
        return np.concatenate([a * n + en for a in range(3)], axis=1)

    return operator_cache(mesh).get("vector_dofs", build)


def _vector_scatter(mesh: Mesh) -> CachedScatter:
    def build():
        gdofs = vector_dofs(mesh)
        k = gdofs.shape[1]
        rows = np.repeat(gdofs, k, axis=1).ravel()
        cols = np.tile(gdofs, (1, k)).ravel()
        n3 = 3 * mesh.n_nodes
        return CachedScatter(rows, cols, (n3, n3))

    return operator_cache(mesh).get("scatter_vector", build)


def _divergence_scatter(mesh: Mesh) -> CachedScatter:
    def build():
        en = mesh.element_nodes
        vdofs = vector_dofs(mesh)
        rows = np.repeat(en, 24, axis=1).ravel()
        cols = np.tile(vdofs, (1, 8)).ravel()
        return CachedScatter(rows, cols, (mesh.n_nodes, 3 * mesh.n_nodes))

    return operator_cache(mesh).get("scatter_divergence", build)


def assemble_scalar(mesh: Mesh, elem_mats: np.ndarray, constrain: bool = True) -> sp.csr_matrix:
    """Assemble (ne, 8, 8) element matrices into a global scalar operator.

    With ``constrain=True`` (default) the result acts on independent dofs
    (``Z^T A Z``); otherwise on all mesh nodes.
    """
    if elem_mats.shape != (mesh.n_elements, 8, 8):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["scalar"] += 1
    A = _scalar_scatter(mesh).assemble(elem_mats)
    if not constrain:
        return A
    return sp.csr_matrix(mesh.Z.T @ A @ mesh.Z)


def Z3(mesh: Mesh) -> sp.csr_matrix:
    """Constraint operator for component-blocked vector fields (cached)."""
    return operator_cache(mesh).get(
        "Z3", lambda: sp.block_diag([mesh.Z] * 3, format="csr")
    )


def assemble_vector(mesh: Mesh, elem_mats: np.ndarray, constrain: bool = True) -> sp.csr_matrix:
    """Assemble (ne, 24, 24) component-blocked velocity element matrices.

    Local dof ``8a + i`` maps to global node dof ``a * n_nodes +
    element_nodes[e, i]``.
    """
    if elem_mats.shape != (mesh.n_elements, 24, 24):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["vector"] += 1
    A = _vector_scatter(mesh).assemble(elem_mats)
    if not constrain:
        return A
    z3 = Z3(mesh)
    return sp.csr_matrix(z3.T @ A @ z3)


def assemble_divergence(mesh: Mesh, elem_B: np.ndarray, constrain: bool = True) -> sp.csr_matrix:
    """Assemble (ne, 8, 24) pressure-velocity coupling blocks into the
    (n_p, 3 n_u) divergence operator."""
    if elem_B.shape != (mesh.n_elements, 8, 24):
        raise ValueError("element matrix array has wrong shape")
    _ASSEMBLY_COUNTS["divergence"] += 1
    B = _divergence_scatter(mesh).assemble(elem_B)
    if not constrain:
        return B
    return sp.csr_matrix(mesh.Z.T @ B @ Z3(mesh))


def assemble_rhs(mesh: Mesh, elem_vecs: np.ndarray, constrain: bool = True) -> np.ndarray:
    """Assemble (ne, 8) element load vectors into a global rhs."""
    if elem_vecs.shape != (mesh.n_elements, 8):
        raise ValueError("element vector array has wrong shape")
    b = np.bincount(
        mesh.element_nodes.ravel(), weights=elem_vecs.ravel(), minlength=mesh.n_nodes
    )
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

    Rows and columns of constrained dofs are zeroed (column elimination
    moves the known values to the rhs), the diagonal is set to 1 and the
    rhs entries to the prescribed values.  Returns new ``(A, b)``.
    """
    dofs = np.asarray(dofs)
    if dofs.dtype == bool:
        dofs = np.flatnonzero(dofs)
    n = A.shape[0]
    vals = np.zeros(n, dtype=np.float64)
    vals[dofs] = values
    if b is not None:
        b = b - A @ vals
    mask = np.ones(n)
    mask[dofs] = 0.0
    D = sp.diags(mask)
    A = sp.csr_matrix(D @ A @ D + sp.diags(1.0 - mask))
    if b is not None:
        b[dofs] = vals[dofs]
    return A, b
