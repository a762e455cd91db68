"""Global sparse assembly through the constraint-folded element gather.

Every assembled operator is one Galerkin product

    A = G_r^T · blkdiag(A_e) · G_c

of the element matrices (produced by :class:`~repro.fem.hexops.ElementOps`)
with the mesh's element gathers: row ``k`` of a gather ``G`` is the row
of the hanging-node constraint operator ``Z`` (``Z3`` for the
component-blocked velocity) of element-local dof ``k``, so the product
acts on independent dofs directly — the matrix form of the element-level
constraint enforcement described in Section IV ("algebraic constraints on
hanging nodes impose continuity").  scipy's sparse-sparse product
(Gustavson, row by row) sums the duplicates as it goes: no COO triple, no
sort plan and no separate ``Z^T A Z`` product.  The unconstrained
operators (``constrain=False``) use the plain node incidence as their
gather.

:func:`galerkin` evaluates the product in row blocks of the output, each
holding about :data:`GALERKIN_BLOCK` entries of ``G_r^T``: a block takes
the elements its rows touch, forms their rows of ``blkdiag(A_e) · G_c``
and writes its output rows in place, into arrays sized by one symbolic
pass.  Each output row sums the same terms in the same order as the
product over the whole mesh, so the CSR is bitwise that product's, while
the transient memory grows with the block, not with the mesh.  Element
matrices reach it through ``take(idx, axis=0)``: a dense ``(ne, r, c)``
array, or :class:`~repro.fem.hexops.ElementMatrices`, which forms only
the matrices a block takes.

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

import threading
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import obs
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


#: entries of the scatter ``GT`` per row block of :func:`galerkin` (the
#: sweep that chose it is in DESIGN.md §4l)
GALERKIN_BLOCK = 25_000


def _row_blocks(indptr: np.ndarray) -> np.ndarray:
    """Bounds ``0 = b_0 < ... < b_m = n`` of row blocks holding about
    :data:`GALERKIN_BLOCK` entries each of the CSR matrix with ``indptr``."""
    cuts = np.searchsorted(indptr, np.arange(GALERKIN_BLOCK, int(indptr[-1]), GALERKIN_BLOCK))
    return np.unique(np.concatenate([[0], cuts, [len(indptr) - 1]]))


def _touched_elements(cols: np.ndarray, r: int, idx) -> tuple[np.ndarray, np.ndarray]:
    """The sorted elements ``E`` that element-local rows ``cols`` (row
    ``r e + i`` is row ``i`` of element ``e``) belong to, and each entry's
    row in the ``(len(E) r)``-row stack of their matrices."""
    el, i = np.divmod(cols, r)
    e0 = el.min()
    pos = np.zeros(el.max() - e0 + 1, dtype=idx)
    pos[el - e0] = 1
    E = np.flatnonzero(pos).astype(idx) + e0
    np.cumsum(pos, out=pos)
    local = pos[el - e0]
    local -= 1
    local *= r
    local += i
    return E, local


class _Workspace(threading.local):
    """Per-thread buffers that every row block of every product on the
    thread reuses: a block's arrays are views into them, and they hold
    what the largest block so far needed.  Fresh arrays per block fault
    their pages in again each time (the allocator hands freed blocks back
    to the OS); in the cycles of the P = 2 front pipeline that made the
    transport build about 15 % slower."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, name: str, shape, dtype) -> np.ndarray:
        n = int(np.prod(shape))
        buf = self.buffers.get(name)
        if buf is None or len(buf) < n or buf.dtype != dtype:
            del buf  # the smaller buffer goes before the larger one comes
            self.buffers.pop(name, None)
            buf = self.buffers[name] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)


_workspace = _Workspace()


def _block_product(GT_block: sp.csr_matrix, elem_mats, G: sp.csr_matrix, elem_nnz, idx, out):
    """Write ``GT_block @ blkdiag(elem_mats) @ G`` into ``out`` (indptr,
    indices, data): ``C = blkdiag(A_E) @ G`` over the elements ``E`` the
    block touches, then ``GT_block @ C``."""
    ne, r, c = elem_mats.shape
    E, local = _touched_elements(GT_block.indices, r, idx)
    n = r * len(E)
    AE = elem_mats.take(E, axis=0, out=_workspace("AE", (len(E), r, c), np.float64))
    C_nnz = r * int(elem_nnz[E].sum())  # the G rows each row of C reads
    C = (
        _workspace("Cp", n + 1, idx),
        _workspace("Cj", C_nnz, idx),
        _workspace("Cx", C_nnz, np.float64),
    )
    cols = np.add.outer(
        c * E, np.tile(np.arange(c, dtype=idx), r), out=_workspace("Bi", (len(E), r * c), idx)
    )
    _sparsetools.csr_matmat(
        n, G.shape[1],
        np.arange(0, n * c + 1, c, dtype=idx), cols.reshape(-1), AE.reshape(-1),
        G.indptr, G.indices, G.data, *C,
    )
    _sparsetools.csr_matmat(
        GT_block.shape[0], G.shape[1],
        GT_block.indptr, local, GT_block.data, *C, *out,
    )


def galerkin(rows: Gather, elem_mats, cols: Gather) -> sp.csr_matrix:
    """``rows.GT @ blkdiag(elem_mats) @ cols.G`` in canonical CSR (sorted
    indices, duplicates summed, exact zeros dropped).

    ``elem_mats`` has ``shape`` ``(ne, r, c)`` and ``take(idx, axis=0)``:
    a dense array, or :class:`~repro.fem.hexops.ElementMatrices`.  The
    product runs in row blocks of the output (:data:`GALERKIN_BLOCK`).  A
    block takes the elements ``E`` its rows of ``GT`` touch, forms ``C =
    blkdiag(A_E) @ G`` and writes ``GT[block] @ C`` straight into the
    output arrays, sized beforehand by a symbolic pass.  Every output row
    sums the same terms in the same order as the unblocked product, so the
    result is bitwise that product's, while the memory a block uses
    besides its output rows grows with the block, not the mesh."""
    ne, r, c = elem_mats.shape
    GT, G = rows.GT, cols.G
    n_rows, n_cols = GT.shape[0], G.shape[1]
    bounds = _row_blocks(GT.indptr)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    # element e reads G rows elem_rows[e]:elem_rows[e + 1] (as one row);
    # output row p couples to their union over the elements GT row p touches
    elem_rows = np.ascontiguousarray(G.indptr[::c])
    bound = sum(
        _sparsetools.csr_matmat_maxnnz(
            p1 - p0, n_cols, GT.indptr[p0:p1 + 1] - GT.indptr[p0],
            GT.indices[GT.indptr[p0]:GT.indptr[p1]] // r, elem_rows, G.indices,
        )
        for p0, p1 in blocks
    )
    elem_nnz = np.diff(elem_rows)
    idx = np.int32 if max(bound, r * G.nnz, ne * r * c, n_cols) < 2**31 else np.int64
    G = sp.csr_matrix(
        (G.data, G.indices.astype(idx, copy=False), G.indptr.astype(idx, copy=False)),
        shape=G.shape, copy=False,
    )
    indptr = np.zeros(n_rows + 1, dtype=idx)
    indices = np.empty(bound, dtype=idx)
    data = np.empty(bound, dtype=np.float64)
    nnz = 0
    for p0, p1 in blocks:
        lo, hi = GT.indptr[p0], GT.indptr[p1]
        if lo < hi:  # else: rows of dofs that no element touches
            GT_block = sp.csr_matrix(
                (
                    GT.data[lo:hi], GT.indices[lo:hi],
                    (GT.indptr[p0:p1 + 1] - lo).astype(idx),
                ),
                shape=(p1 - p0, GT.shape[1]),
            )
            block_indptr = np.empty(p1 - p0 + 1, dtype=idx)
            _block_product(
                GT_block, elem_mats, G, elem_nnz, idx,
                (block_indptr, indices[nnz:], data[nnz:]),
            )
            indptr[p0 + 1:p1 + 1] = block_indptr[1:] + nnz
            nnz += int(block_indptr[-1])
        else:
            indptr[p0 + 1:p1 + 1] = nnz
    obs.counter("galerkin_blocks", len(blocks))
    # the bound counts entries that sum to exact zeros: trim in place
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    A = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
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
