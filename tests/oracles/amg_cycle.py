"""The AMG V-cycle as ``SmoothedAggregationAMG`` ran it before the
free/fixed split: the hierarchy is built on the full matrix (decoupled
Dirichlet rows included, each one a singleton aggregate on every level),
the restriction is ``P.T`` taken per call, the forward sweep starts from
``0 + L^{-1}(b - A 0)`` and the coarsest operator goes through the
general (SVD) ``pinv``.

It shares the per-level setup primitives with ``src/`` (strength graph,
aggregation, the spectral-radius estimate), so built on
``A[free][:, free]`` it coarsens exactly as the solver's free hierarchy
does; the level loop, the cycle and the coarse solve are its own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.solvers.amg import _estimate_rho, aggregate, strength_graph


def _substitution(T):
    lu = spla.splu(
        sp.csc_matrix(T),
        permc_spec="NATURAL",
        options=dict(DiagPivotThresh=0.0, SymmetricMode=True),
    )
    return lu.solve


class AMGCycleOracle:
    """``oracle.vcycle(b)`` is the reference one-cycle ``A^{-1}``
    approximation on the whole of ``A``."""

    def __init__(self, A, theta=0.08, max_coarse=64, max_levels=20,
                 presmooth=1, postsmooth=1):
        self.presmooth = presmooth
        self.postsmooth = postsmooth
        self.A = [sp.csr_matrix(A)]
        self.P = [None]
        while self.A[-1].shape[0] > max_coarse and len(self.A) < max_levels:
            Af = self.A[-1]
            n = Af.shape[0]
            agg, n_agg = aggregate(strength_graph(Af, theta))
            if n_agg >= n:
                break
            T = sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, n_agg))
            counts = np.asarray(T.sum(axis=0)).ravel()
            T = sp.csr_matrix(T @ sp.diags(1.0 / np.sqrt(counts)))
            d = Af.diagonal()
            d = np.where(d != 0, d, 1.0)
            DinvA = sp.diags(1.0 / d) @ Af
            omega = (4.0 / 3.0) / max(_estimate_rho(sp.csr_matrix(DinvA)), 1e-12)
            P = sp.csr_matrix(T - omega * (DinvA @ T))
            self.A.append(sp.csr_matrix(P.T @ Af @ P))
            self.P.append(P)
        self.Lsolve = [_substitution(sp.tril(Ak, format="csr")) for Ak in self.A[:-1]]
        self.Usolve = [_substitution(sp.triu(Ak, format="csr")) for Ak in self.A[:-1]]
        self.coarse_inv = np.linalg.pinv(self.A[-1].toarray())

    def grid_sizes(self):
        return [Ak.shape[0] for Ak in self.A]

    def _cycle(self, k, b):
        if k == len(self.A) - 1:
            return self.coarse_inv @ b
        Ak = self.A[k]
        x = np.zeros_like(b)
        for _ in range(self.presmooth):
            x = x + self.Lsolve[k](b - Ak @ x)
        P = self.P[k + 1]
        x = x + P @ self._cycle(k + 1, P.T @ (b - Ak @ x))
        for _ in range(self.postsmooth):
            x = x + self.Usolve[k](b - Ak @ x)
        return x

    def vcycle(self, b):
        return self._cycle(0, b)
