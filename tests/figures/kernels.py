"""The Section VII kernel study's subject: matrix-based vs tensor-product
element derivative kernels, their flop and byte models, and their
roofline price on a :class:`~repro.parallel.machine.MachineModel`.

Section VII analyzes two implementations of the reference-space gradient
of a nodal field on a ``(p+1)^3`` spectral element:

- **matrix-based**: three precomputed dense ``(p+1)^3 x (p+1)^3``
  matrices (:class:`~repro.mangll.tensor.DerivativeKernel`'s ``*_full``),
  applied as large matrix-matrix multiplies across all elements —
  ``6 (p+1)^6`` flops per element, extremely cache/BLAS friendly;
- **tensor-product**: exploit the Kronecker structure and contract the 1-D
  differentiation matrix along each axis — ``6 (p+1)^4`` flops per
  element, asymptotically optimal but smaller matrices.

The crossover order between the two on a given machine is the experiment
reported for Ranger (between p = 2 and p = 4); ``test_sec7_dg.py`` times
it where it runs, and :func:`t_element_kernel` prices both variants with
the paper's sustained rates.  The DG solver calls neither kernel: it
assembles its volume term from the ``*_full`` matrices into one sparse
matrix per mesh (:mod:`repro.mangll.dg`).

Both kernels return ``(du/dr, du/ds, du/dt)`` in reference coordinates
and accept arbitrary leading batch axes: ``(ne, n^3)`` applies the kernel
to every element of a mesh at once, ``(ne, nfields, n^3)`` to every field
of every element.
"""

from __future__ import annotations

import numpy as np

from repro.mangll.tensor import DerivativeKernel
from repro.parallel.machine import MachineModel


def matrix_flops(p: int) -> int:
    """Flops per element for the matrix-based gradient: 6 (p+1)^6."""
    return 6 * (p + 1) ** 6


def tensor_flops(p: int) -> int:
    """Flops per element for the tensor-product gradient: 6 (p+1)^4."""
    return 6 * (p + 1) ** 4


def gradient_bytes(p: int) -> int:
    """Bytes streamed per element by either gradient: one field read and
    one gradient write per axis (the dense ``(p+1)^3`` matrices and the
    1-D factors stay cache-resident across a batch and are not charged
    per element)."""
    n3 = (p + 1) ** 3
    return 8 * (3 * n3 + 3 * n3)


def contract_axis(A: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """Contract the 1-D operator ``A`` (shape ``(m, n)``) along one
    tensor axis of an element-batched field.

    ``u`` has shape ``(..., n_t, n_s, n_r)`` with arbitrary leading batch
    axes; ``axis`` counts 0 = r (x, fastest), 1 = s (y), 2 = t (z).
    Returns the same shape with the contracted axis replaced by ``m``.
    This is the single primitive of the tensor-product variant: one
    gradient is three calls.
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


def gradient_matrix(kern: DerivativeKernel, u: np.ndarray):
    """Matrix-based: ``u`` is (..., n^3); three dense matmuls."""
    return (u @ kern.Dr_full.T, u @ kern.Ds_full.T, u @ kern.Dt_full.T)


def gradient_tensor(kern: DerivativeKernel, u: np.ndarray):
    """Tensor-product: contract ``D`` along each axis of (..., n, n, n)."""
    n = kern.n
    batch = u.shape[:-1]
    v = u.reshape(*batch, n, n, n)  # [..., t, s, r]
    return tuple(contract_axis(kern.D, v, a).reshape(*batch, -1) for a in range(3))


def gradient(kern: DerivativeKernel, u: np.ndarray, variant: str):
    """The ``"matrix"`` or ``"tensor"`` gradient of ``u``."""
    if variant == "tensor":
        return gradient_tensor(kern, u)
    if variant == "matrix":
        return gradient_matrix(kern, u)
    raise ValueError(f"unknown variant {variant!r}")


def t_element_kernel(machine: MachineModel, p: int, variant: str, n_elements: int) -> float:
    """Modeled time of one element-gradient sweep over ``n_elements``
    order-``p`` elements with the chosen kernel variant.

    Roofline form: the compute time at the variant's sustained rate
    (``flop_rate_dense`` for matrix-based GEMMs, ``flop_rate_tensor`` for
    sum-factorized contractions) lower-bounded by the time to stream the
    element data (:func:`gradient_bytes`).
    """
    if variant == "matrix":
        nflops, rate = matrix_flops(p), machine.flop_rate_dense
    elif variant == "tensor":
        nflops, rate = tensor_flops(p), machine.flop_rate_tensor
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return max(nflops * n_elements / rate, machine.t_stream(gradient_bytes(p) * n_elements))
