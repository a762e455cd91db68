"""Matrix-based vs tensor-product element derivative kernels.

Section VII analyzes two implementations of the reference-space gradient
of a nodal field on a ``(p+1)^3`` spectral element:

- **matrix-based**: three precomputed dense ``(p+1)^3 x (p+1)^3``
  matrices, applied as large matrix-matrix multiplies across all elements
  — ``6 (p+1)^6`` flops per element, extremely cache/BLAS friendly;
- **tensor-product**: exploit the Kronecker structure and contract the 1-D
  differentiation matrix along each axis — ``6 (p+1)^4`` flops per
  element, asymptotically optimal but smaller matrices.

The crossover order between the two on a given machine is exactly the
experiment reported for Ranger (between p = 2 and p = 4); the figure
test ``tests/figures/test_sec7_dg.py`` times it on this host and
:meth:`repro.parallel.machine.MachineModel.t_element_kernel` prices both
variants with the paper's sustained rates.

Both kernels return ``(du/dr, du/ds, du/dt)`` in reference coordinates;
both exist for the Section VII kernel study.  The DG solver calls
neither: it takes the 1-D nodes and weights and the three dense
``(p+1)^3`` derivative matrices of :class:`DerivativeKernel` and
assembles its volume term, metric terms included, into one sparse matrix
per mesh (:mod:`repro.mangll.dg`).

This module is the shared kernel layer for *all* element-batched tensor
algebra in the code base: the DG solver builds on :class:`DerivativeKernel`,
and the low-order FEM matrix-free apply engine
(:mod:`repro.fem.matfree`) builds its fused Gauss-point evaluation
matrices from the same 1-D factors through :func:`kron3`.  Every kernel
is batched over elements — operands carry arbitrary leading batch axes
``(..., n^3)`` (elements, or elements x fields), so one call applies the
operator to the whole mesh at once.
"""

from __future__ import annotations

import numpy as np

from .lgl import diff_matrix, lgl_nodes

__all__ = [
    "DerivativeKernel",
    "matrix_flops",
    "tensor_flops",
    "matrix_bytes",
    "tensor_bytes",
    "kron3",
    "contract_axis",
]


def matrix_flops(p: int) -> int:
    """Flops per element for the matrix-based gradient: 6 (p+1)^6."""
    return 6 * (p + 1) ** 6


def tensor_flops(p: int) -> int:
    """Flops per element for the tensor-product gradient: 6 (p+1)^4."""
    return 6 * (p + 1) ** 4


def matrix_bytes(p: int) -> int:
    """Bytes streamed per element by the matrix-based gradient: the field
    is read once per derivative matrix and three gradients are written
    (the three dense ``(p+1)^3`` square matrices stay cache-resident
    across a batch and are not charged per element)."""
    n3 = (p + 1) ** 3
    return 8 * (3 * n3 + 3 * n3)


def tensor_bytes(p: int) -> int:
    """Bytes streamed per element by the tensor-product gradient: one
    field read and one gradient write per axis (the 1-D matrices are
    negligible)."""
    n3 = (p + 1) ** 3
    return 8 * (3 * n3 + 3 * n3)


def kron3(az: np.ndarray, ay: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """``kron(Az, Ay, Ax)`` for 1-D factor matrices, matching the node
    ordering ``u[..., k, j, i]`` (x fastest).  Used to *fuse* a
    sum-factorized operator into a single small dense matrix when the 1-D
    extent is tiny (the ``n = 2`` trilinear FEM case, where per-axis
    passes cost more in memory traffic than they save in flops)."""
    return np.kron(az, np.kron(ay, ax))


def contract_axis(A: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """Contract the 1-D operator ``A`` (shape ``(m, n)``) along one
    tensor axis of an element-batched field.

    ``u`` has shape ``(..., n_t, n_s, n_r)`` with arbitrary leading batch
    axes (elements, or elements x fields); ``axis`` counts 0 = r (x,
    fastest), 1 = s (y), 2 = t (z).  Returns the same shape with the
    contracted axis replaced by ``m``.  This is the single primitive of
    the sum-factorized (tensor-product) variant: one gradient is three
    calls, ``6 (p+1)^4`` flops per element instead of ``6 (p+1)^6``.
    """
    # each case is a BLAS product on a reshaped view (einsum runs the same
    # contraction an order of magnitude slower): r is one large GEMM, s
    # and t broadcast ``A`` over the leading axes
    batch = u.shape[:-3]
    nt, ns, nr = u.shape[-3:]
    m = len(A)
    if axis == 0:
        return (u.reshape(-1, nr) @ A.T).reshape(*batch, nt, ns, m)
    if axis == 1:
        return np.matmul(A, u)
    if axis == 2:
        return np.matmul(A, u.reshape(*batch, nt, ns * nr)).reshape(*batch, m, ns, nr)
    raise ValueError(f"axis must be 0, 1, or 2, got {axis}")


class DerivativeKernel:
    """Reference-space gradient on batches of spectral elements.

    Node ordering within an element is ``u[..., k, j, i]`` flattened C-style
    (i fastest along r).  Both variants accept arbitrary leading batch
    axes: ``(ne, n^3)`` applies the kernel to every element of a mesh at
    once, ``(ne, nfields, n^3)`` to every field of every element (the
    element-batched form shared by the DG and FEM layers).
    """

    def __init__(self, p: int):
        self.p = p
        self.n = p + 1
        self.nodes, self.weights = lgl_nodes(p)
        self.D = diff_matrix(self.nodes)  # (n, n)
        n = self.n
        # dense 3-D derivative matrices: the matrix-based variant, and the
        # pattern and entries of the DG volume term
        I = np.eye(n)
        self.Dr_full = kron3(I, I, self.D)
        self.Ds_full = kron3(I, self.D, I)
        self.Dt_full = kron3(self.D, I, I)

    # -- variants ------------------------------------------------------------

    def gradient_matrix(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matrix-based: ``u`` is (..., n^3); three dense matmuls."""
        return (u @ self.Dr_full.T, u @ self.Ds_full.T, u @ self.Dt_full.T)

    def gradient_tensor(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tensor-product: contract D along each axis of (..., n, n, n) —
        three BLAS products (:func:`contract_axis`); the results are
        fresh contiguous arrays the caller may overwrite."""
        n = self.n
        batch = u.shape[:-1]
        v = u.reshape(*batch, n, n, n)  # [..., t, s, r]
        dr = contract_axis(self.D, v, 0).reshape(*batch, -1)
        ds = contract_axis(self.D, v, 1).reshape(*batch, -1)
        dt = contract_axis(self.D, v, 2).reshape(*batch, -1)
        return dr, ds, dt

    def gradient(self, u: np.ndarray, variant: str = "tensor"):
        if variant == "tensor":
            return self.gradient_tensor(u)
        if variant == "matrix":
            return self.gradient_matrix(u)
        raise ValueError(f"unknown variant {variant!r}")
