"""The matrix-free, one-component-at-a-time GMG that
``repro.solvers.gmg`` carried before its levels became assembled CSR
over the stacked velocity vector: the sum-factorised level apply with
its closed-form diagonal, the scalar Chebyshev smoother, and the
per-component V-cycle looped over the three components."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem import matfree as mf
from repro.fem.assembly import gather
from repro.fem.stokes import velocity_bcs
from repro.solvers.gmg import coarse_viscosities, mesh_hierarchy, prolongation

from .saddle_tensor import _BWD_RED_T, _FWD_RED_T


class MatFreeScalarPoisson:
    """Sum-factorized apply of one Dirichlet-masked variable-viscosity
    scalar Poisson block ``D Z^T K(eta) Z D + (I - D)``: the reduced-grid
    gradient chain of :mod:`tests.oracles.saddle_tensor` behind the
    constraint-folding gather, the mask applied as vector operations
    around the unconstrained apply.  Nothing is assembled."""

    def __init__(self, mesh, viscosity, bc_dofs):
        self.mesh = mesh
        self.n = mesh.n_independent
        G = sp.csr_matrix(mesh.Z[mesh.element_nodes.T.ravel()])
        G.eliminate_zeros()
        self.g = gather(G)
        self.mask = np.ones(self.n, dtype=np.float64)
        self.mask[bc_dofs] = 0.0
        self.imask = 1.0 - self.mask
        w, ih, _ = mf._geometry(mesh)
        # per-element coefficients c_b = w eta / h_b^2
        self.cb = (w * np.asarray(viscosity, np.float64))[None, :] * ih.T**2

    def apply(self, x):
        """``(D Z^T K Z D + I - D) x`` for ``x`` of shape ``(n,)``."""
        ne = self.mesh.n_elements
        # rows of G are i*ne + e, so (8 ne,) -> (8, ne) is a free reshape
        Xe = (self.g.G @ (self.mask * x)).reshape(8, ne)
        gs = _FWD_RED_T @ Xe  # (12, ne): reduced-grid reference gradients
        gs.reshape(3, 4, -1)[...] *= self.cb[:, None, :]
        out_e = _BWD_RED_T @ gs  # (8, ne)
        return self.mask * (self.g.GT @ out_e.ravel()) + self.imask * x

    def diagonal(self):
        """The exact diagonal of the constrained masked operator (1 on
        Dirichlet rows) in closed per-element form: grouping the gather
        entries by (element, dof) gives dense 8-vectors ``z`` with
        contribution ``sum_b c_b z^T K_b z``, ``K_b = G8[b]^T G8[b]``."""
        coo = self.g.G.tocoo()
        ne = self.mesh.n_elements
        key = (coo.row % ne).astype(np.int64) * self.n + coo.col.astype(np.int64)
        uk, gid = np.unique(key, return_inverse=True)
        Zd = np.zeros((len(uk), 8), dtype=np.float64)
        Zd[gid, coo.row // ne] = coo.data
        ge, gd = uk // self.n, uk % self.n
        t = np.stack(
            [((Zd @ (mf.G8[b].T @ mf.G8[b])) * Zd).sum(axis=1) for b in range(3)]
        )
        d = np.bincount(gd, weights=(self.cb[:, ge] * t).sum(axis=0), minlength=self.n)
        return self.mask * d + self.imask


class ScalarChebyshev:
    """Chebyshev smoother of one component (scalar ``lmax``)."""

    def __init__(self, op, degree=3, lmax_scale=1.1, lmin_ratio=8.0,
                 power_iters=12, seed=0):
        self.op = op
        self.degree = degree
        self.dinv = 1.0 / op.diagonal()
        x = np.random.default_rng(seed).standard_normal(op.n)
        x /= np.linalg.norm(x)
        for _ in range(power_iters):
            y = self.dinv * op.apply(x)
            lam = np.linalg.norm(y)
            x = y / lam
        self.lmax = lmax_scale * float(lam)
        self.lmin = self.lmax / lmin_ratio

    def apply(self, b):
        theta = 0.5 * (self.lmax + self.lmin)
        delta = 0.5 * (self.lmax - self.lmin)
        sigma = theta / delta
        rho_old = 1.0 / sigma
        d = (self.dinv * b) / theta
        x = d
        r = b
        for _ in range(self.degree - 1):
            r = r - self.op.apply(d)
            rho = 1.0 / (2.0 * sigma - rho_old)
            d = (rho * rho_old) * d + (2.0 * rho / delta) * (self.dinv * r)
            x = x + d
            rho_old = rho
        return x


class ComponentCycle:
    """The V-cycle of velocity component ``axis`` alone: matrix-free
    level operators, per-component masked transfers (restriction taken
    as ``P.T`` per call), dense coarsest solve built by applying the
    coarse operator to the identity."""

    def __init__(self, mesh, viscosity, bc_kind, axis, **smoother_opts):
        hier = mesh_hierarchy(mesh)
        etas = coarse_viscosities(hier, viscosity)
        self.ops, self.smoothers, self.P = [], [], [None]
        for i, m in enumerate(hier.meshes):
            op = MatFreeScalarPoisson(
                m, etas[i], velocity_bcs(m, bc_kind).per_component[axis]
            )
            if i > 0:
                P = prolongation(hier.meshes[i - 1], m)
                self.P.append(
                    sp.csr_matrix(sp.diags(self.ops[-1].mask) @ P @ sp.diags(op.mask))
                )
            self.ops.append(op)
            self.smoothers.append(ScalarChebyshev(op, **smoother_opts))
        Ac = np.stack([op.apply(e) for e in np.eye(op.n)], axis=1)
        self.coarse_inv = np.linalg.pinv(0.5 * (Ac + Ac.T), hermitian=True)

    def vcycle(self, b, k=0):
        if k == len(self.ops) - 1:
            return self.coarse_inv @ b
        op, S, P = self.ops[k], self.smoothers[k], self.P[k + 1]
        x = S.apply(b)
        x = x + P @ self.vcycle(P.T @ (b - op.apply(x)), k + 1)
        return x + S.apply(b - op.apply(x))


def loop_vcycle(mesh, viscosity, bc_kind, r, **opts):
    """Three :class:`ComponentCycle` V-cycles on the stacked ``(3n,)``
    residual ``r``, one component after the other."""
    n = mesh.n_independent
    return np.concatenate(
        [
            ComponentCycle(mesh, viscosity, bc_kind, a, **opts).vcycle(
                r[a * n : (a + 1) * n]
            )
            for a in range(3)
        ]
    )
