"""MANGLL: high-order nodal DG on hexahedral spectral elements (Sec. VII)."""

from .dg import DGAdvection, solid_body_rotation
from .lgl import diff_matrix, lagrange_basis_at, lgl_nodes
from .tensor import DerivativeKernel
from .transfer import dg_transfer

__all__ = [
    "DGAdvection",
    "solid_body_rotation",
    "lgl_nodes",
    "diff_matrix",
    "lagrange_basis_at",
    "DerivativeKernel",
    "dg_transfer",
]
