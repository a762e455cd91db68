"""The reduced-grid sum-factorised Q1 saddle apply that
``repro.fem.matfree.MatFreeStokesOperator`` ran before it became one
dense ``32 x 32`` element-matrix GEMM: forward gradients on 4-point
reduced Gauss grids, per-element coefficient multiplies, one fused
backward GEMM for the grad-grad term and one batched correction GEMM for
the transposed-gradient, ``B^T p``, divergence and stabilization
channels.  The reduced-grid factors are also what the matrix-free GMG
level operator of :mod:`tests.oracles.gmg_levels` contracts with."""

from __future__ import annotations

import numpy as np

from repro.fem.matfree import E8, G8, _geometry, scalar_gather, velocity_gather

# Reduced quadrature grids: a trilinear reference derivative along axis b
# is *constant* in the b direction, so G8[b] has pairwise-equal rows and
# the gradient channel (a, b) lives on a 4-point grid (the two transverse
# Gauss axes).  Row subsets below pick one representative of each
# duplicated pair (q = qx + 2 qy + 4 qz, x fastest); ``_dup_sum(a, X)``
# sums the rows of a full-grid matrix over axis-``a`` pairs, which is how
# a backward contraction consumes data stored on an ``a``-reduced grid.
_RED_ROWS = (
    np.array([0, 2, 4, 6], dtype=np.intp),
    np.array([0, 1, 4, 5], dtype=np.intp),
    np.array([0, 1, 2, 3], dtype=np.intp),
)
_PAIR_OFFSET = (1, 2, 4)
_GRED = np.stack([G8[b][_RED_ROWS[b]] for b in range(3)])  # (3, 4, 8)
#: fused reduced forward: (3 ne, 8) @ (8, 12) -> all nine grad channels
_FWD_RED = np.concatenate([_GRED[0], _GRED[1], _GRED[2]], axis=0).T


def _dup_sum(a: int, X: np.ndarray) -> np.ndarray:
    """(4, 8) sums of the rows of ``X`` over axis-``a`` quadrature pairs."""
    return X[_RED_ROWS[a]] + X[_RED_ROWS[a] + _PAIR_OFFSET[a]]


#: fused backward for the grad-grad term Sum_b G8[b]^T (c_b g[a, b]):
#: channel (a, b) is b-reduced, so each block is Dup_b^T G8[b] = 2 Gred[b]
_BWD_RED = np.concatenate([_dup_sum(b, G8[b]) for b in range(3)], axis=0)
#: basis-value backward on an a-reduced grid (divergence row of the saddle)
_PSUM = np.stack([_dup_sum(a, E8) for a in range(3)])  # (3, 4, 8)
#: batched correction matrices, one GEMM for the whole coupling block:
#: batch a < 3 is velocity component a, consuming the three
#: transposed-gradient channels g[b, a] (all a-reduced, blocks
#: Dup_a^T G8[b]) plus the full-grid B^T pressure channel (block G8[a]);
#: batch 3 is the pressure row, consuming the three a-reduced diagonal
#: gradient channels (divergence, blocks -Dup_a^T E8) plus the
#: stabilization-mass channel (block -E8)
_CORR = np.stack(
    [
        np.concatenate([_dup_sum(a, G8[0]), _dup_sum(a, G8[1]), _dup_sum(a, G8[2]), G8[a]], axis=0)
        for a in range(3)
    ]
    + [np.concatenate([-_PSUM[0], -_PSUM[1], -_PSUM[2], -E8], axis=0)]
)  # (4, 20, 8)

# element-minor (transposed) factors: element-space arrays are
# ``(channels, ne)``, so the GEMMs are ``(small, small) @ (small, ne)``
_FWD_RED_T = np.ascontiguousarray(_FWD_RED.T)  # (12, 8)
_BWD_RED_T = np.ascontiguousarray(_BWD_RED.T)  # (8, 12)
_CORR_T = np.ascontiguousarray(_CORR.transpose(0, 2, 1))  # (4, 8, 20)


class TensorSaddleOperator:
    """Sum-factorised apply of the constrained saddle operator
    ``[[A, B^T], [B, -C]]`` on the same constraint-folding gathers as
    :class:`repro.fem.matfree.MatFreeStokesOperator`; ``viscosity`` is
    ``(ne,)`` or ``(nb, ne)`` (batch axis merged scenario-minor)."""

    def __init__(self, mesh, viscosity, bc_key, bc_dofs):
        self.mesh = mesh
        self.n_u = 3 * mesh.n_independent
        self.gu = velocity_gather(mesh, bc_key, bc_dofs)
        self.gp = scalar_gather(mesh)
        w, ih, vol = _geometry(mesh)
        eta = np.asarray(viscosity, dtype=np.float64)
        self.nb = 1 if eta.ndim == 1 else int(eta.shape[0])
        if eta.ndim == 2:
            eta = np.ascontiguousarray(eta.T).ravel()  # flat order e * nb + b
            w = np.repeat(w, self.nb)
            ih = np.repeat(ih, self.nb, axis=0)
            vol = np.repeat(vol, self.nb)
        # gathered velocity component a is pre-scaled by
        # sih_a = sqrt(w eta) / h_a, so every downstream coefficient is a
        # per-element broadcast
        self.sihT = np.sqrt(w * eta)[None, :] * np.ascontiguousarray(ih.T)
        self.c1T = self.sihT[None, :, :] ** 2 / self.sihT[:, None, :]
        self.negwihT = -(w[None, :] * ih.T)
        self.s_div = np.sqrt(w / eta)
        self.w_over_eta = w / eta
        self.stab_mean = vol / 64.0 / eta  # rank-one Dohrmann-Bochev term

    def apply(self, x):
        m = self.mesh.n_elements * self.nb
        u, p = x[: self.n_u], x[self.n_u :]
        UeT = (self.gu.G @ u).reshape(3, 8, m) * self.sihT[:, None, :]
        peT = (self.gp.G @ p).reshape(8, m)
        gs = np.matmul(_FWD_RED_T[None], UeT)  # (3, 12, m)
        pqT = E8 @ peT
        gs4 = gs.reshape(3, 3, 4, m)
        acc = np.matmul(
            _BWD_RED_T[None], (gs4 * self.c1T[:, :, None, :]).reshape(3, 12, m)
        )
        cin = np.empty((4, 20, m))
        for a in range(3):
            cin[a, :12] = (gs4[:, a] * self.sihT[a, None, None, :]).reshape(12, m)
            cin[3, 4 * a : 4 * a + 4] = gs4[a, a] * self.s_div[None, :]
        cin[:3, 12:] = self.negwihT[:, None, :] * pqT[None]
        cin[3, 12:] = self.w_over_eta[None, :] * pqT
        cout = np.matmul(_CORR_T, cin)
        acc += cout[:3]
        ope = cout[3] + (self.stab_mean * peT.sum(axis=0))[None, :]
        shape = (-1,) if x.ndim == 1 else (-1, self.nb)
        out = np.empty_like(x)
        out[self.n_u :] = self.gp.GT @ ope.reshape(shape)
        imask = self.gu.imask if x.ndim == 1 else self.gu.imask[:, None]
        out[: self.n_u] = self.gu.GT @ acc.reshape(shape) + imask * u
        return out
