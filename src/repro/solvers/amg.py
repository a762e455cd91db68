"""Smoothed-aggregation algebraic multigrid (the BoomerAMG substitute).

The paper preconditions each velocity-component Poisson block with one
V-cycle of BoomerAMG (hypre).  Offline we build our own AMG from scratch:
smoothed aggregation (Vanek/Mandel/Brezina), which for variable-coefficient
scalar Poisson operators yields a bounded-convergence-factor V-cycle —
the property the Figure-2 iteration counts depend on.

Rows that couple to nothing (the identity rows of eliminated Dirichlet
dofs) are split off first and solved by a division; the hierarchy lives
on the remaining free block (DESIGN.md §4k).  Pipeline per level:

1. *Strength graph*: ``|a_ij| >= theta * sqrt(a_ii a_jj)``.
2. *Aggregation*: greedy root-point aggregation (three passes).
3. *Tentative prolongator*: piecewise-constant columns, normalized
   (near-nullspace = constants for Poisson).
4. *Prolongator smoothing*: ``P = (I - omega D^{-1} A) T`` with
   ``omega = 4/3 / rho(D^{-1} A)`` estimated by power iteration.
5. *Galerkin coarsening*: ``A_c = R A P`` with ``R = P^T`` kept as CSR
   for the cycle.

The V-cycle uses symmetric Gauss-Seidel (forward pre-, backward
post-smoothing) so that a single cycle with zero initial guess is an SPD
operator — required for use inside MINRES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .. import obs

__all__ = [
    "SmoothedAggregationAMG",
    "AMGLevel",
    "aggregate",
]


def strength_graph(A: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """Symmetric strength-of-connection mask (boolean CSR, no diagonal)."""
    d = np.abs(A.diagonal())
    d = np.where(d > 0, d, 1.0)
    C = A.tocoo()
    scale = np.sqrt(d[C.row] * d[C.col])
    keep = (np.abs(C.data) >= theta * scale) & (C.row != C.col)
    return sp.csr_matrix(
        (np.ones(keep.sum()), (C.row[keep], C.col[keep])), shape=A.shape
    )


def _row_min(indptr: np.ndarray, indices: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-row minimum of ``v`` over a CSR pattern's columns (+inf for
    empty rows) — one min-propagation sweep of the strength graph."""
    n = len(indptr) - 1
    out = np.full(n, np.inf)
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        # reduceat over starts of nonempty rows only: indptr is constant
        # across empty rows, so each segment spans exactly one row
        out[nonempty] = np.minimum.reduceat(v[indices], indptr[:-1][nonempty])
    return out


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated column indices of the given rows, plus per-row counts."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    excl = np.cumsum(counts) - counts
    flat = np.arange(total) + np.repeat(indptr[rows] - excl, counts)
    return indices[flat], counts


def aggregate(
    S: sp.csr_matrix, prio: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Vectorized three-pass root-point aggregation (no per-node Python
    loop).  ``prio`` overrides the pass-1 selection priorities (tests use
    this to pin a specific root layout).

    Pass 1 is a round-parallel maximal-independent-set sweep on the
    distance-2 graph: fixed seeded random priorities, and a node becomes
    a root when its priority is the minimum over its closed distance-2
    neighborhood (two min-propagation sweeps).  Selected roots are
    pairwise at distance >= 3, so their strong neighborhoods are disjoint
    and can be claimed in bulk.  Pass 2 attaches stragglers to the
    neighboring aggregate with the largest strong-connection weight
    (iterated so chains of stragglers resolve).  Pass 3 turns isolated
    leftovers into singletons.
    """
    n = S.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return agg, 0
    indptr, indices = S.indptr, S.indices
    if prio is None:
        # deterministic random priorities: round-parallel MIS on the
        # distance-2 graph needs O(log n) expected rounds with random
        # priorities, while natural grid ordering degenerates to O(n) rounds
        prio = np.random.default_rng(0x5AA6).permutation(n).astype(np.float64)
    else:
        prio = np.asarray(prio, dtype=np.float64)
    n_agg = 0
    # pass 1: parallel-MIS roots with disjoint strong neighborhoods
    while True:
        decided = agg >= 0
        blocked = (S @ decided.astype(np.float64)) > 0
        cand = ~decided & ~blocked
        if not cand.any():
            break
        v = np.where(cand, prio, np.inf)
        m1 = np.minimum(_row_min(indptr, indices, v), v)
        m2 = np.minimum(_row_min(indptr, indices, m1), m1)
        roots = np.flatnonzero(cand & (v == m2))
        ids = n_agg + np.arange(len(roots), dtype=np.int64)
        agg[roots] = ids
        nbrs, counts = _gather_rows(indptr, indices, roots)
        agg[nbrs] = np.repeat(ids, counts)
        n_agg += len(roots)
    # pass 2: attach stragglers to the most strongly connected aggregate
    # (argmax of summed strong-connection weight, smallest id on ties)
    while True:
        un = np.flatnonzero(agg < 0)
        if len(un) == 0 or n_agg == 0:
            break
        assigned = np.flatnonzero(agg >= 0)
        onehot = sp.csr_matrix(
            (np.ones(len(assigned)), (assigned, agg[assigned])), shape=(n, n_agg)
        )
        W = sp.csr_matrix(S[un] @ onehot)  # (straggler, aggregate) weights
        W.sum_duplicates()
        Wp, Wi, Wd = W.indptr, W.indices, W.data
        nonempty = np.flatnonzero(Wp[:-1] < Wp[1:])
        if len(nonempty) == 0:
            break
        starts = Wp[:-1][nonempty]
        rowmax = np.maximum.reduceat(Wd, starts)
        expand = np.repeat(rowmax, Wp[1:][nonempty] - starts)
        masked_cols = np.where(Wd == expand, Wi, n_agg)
        agg[un[nonempty]] = np.minimum.reduceat(masked_cols, starts)
    # pass 3: remaining isolated nodes become singleton aggregates
    rest = np.flatnonzero(agg < 0)
    agg[rest] = n_agg + np.arange(len(rest), dtype=np.int64)
    n_agg += len(rest)
    return agg, n_agg


def _estimate_rho(DinvA: sp.csr_matrix, iters: int = 12, seed: int = 0) -> float:
    """Power-iteration estimate of the spectral radius of D^{-1} A."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(DinvA.shape[0])
    x /= np.linalg.norm(x)
    rho = 1.0
    for _ in range(iters):  # lint: allow-loop (power iteration)
        y = DinvA @ x
        ny = np.linalg.norm(y)
        if ny == 0:
            return 1.0
        rho = ny
        x = y / ny
    return float(rho)


@dataclass
class AMGLevel:
    """One grid level of the AMG hierarchy: the (Galerkin-coarsened)
    operator, the transfer pair between this level and the next finer
    one, and the precomputed Gauss-Seidel triangular factors."""

    A: sp.csr_matrix
    P: sp.csr_matrix | None  # prolongator to this level's fine grid (None on finest)
    #: restriction ``P^T`` stored as CSR at setup (a per-call ``P.T``
    #: builds a CSC wrapper on every level of every cycle)
    R: sp.csr_matrix | None = None
    L: sp.csr_matrix | None = None  # lower triangle incl. diag (GS)
    U: sp.csr_matrix | None = None  # upper triangle incl. diag (GS)
    #: factorized triangular solves, precomputed at setup
    Lsolve: object = None
    Usolve: object = None


def _triangular_solver(T: sp.csr_matrix):
    """Reusable direct solver for a triangular factor (natural order, no
    pivoting, so it performs exactly the substitution sweep)."""
    lu = spla.splu(
        sp.csc_matrix(T),
        permc_spec="NATURAL",
        options=dict(DiagPivotThresh=0.0, SymmetricMode=True),
    )
    return lu.solve


def _decoupled_rows(A: sp.csr_matrix) -> np.ndarray:
    """Boolean mask of the rows of ``A`` that couple to nothing: no
    non-zero off-diagonal entry in the row or in the column, and a
    non-zero diagonal.  These are the identity rows symmetric Dirichlet
    elimination leaves behind; ``A`` is block-diagonal across them."""
    C = A.tocoo()
    off = (C.row != C.col) & (C.data != 0)
    coupled = np.zeros(A.shape[0], dtype=bool)
    coupled[C.row[off]] = True
    coupled[C.col[off]] = True
    return ~coupled & (A.diagonal() != 0)


class SmoothedAggregationAMG:
    """AMG hierarchy with a symmetric V-cycle.

    Decoupled rows (no off-diagonal entry in row or column, non-zero
    diagonal: what symmetric Dirichlet elimination leaves behind) are
    solved exactly by one division and kept out of the hierarchy, which
    is built on the remaining *free* block ``A[free][:, free]``: a
    decoupled row has no strong neighbor, so aggregation would carry it
    as a singleton down every level and the "coarsest" operator could
    never get below their count.  The cycle is
    ``diag(D_fixed^{-1}, V_free)`` — block-diagonal like ``A`` itself, so
    it is the same SPD operator in exact arithmetic.  :attr:`levels`,
    :meth:`grid_sizes`, :attr:`n_levels` and :attr:`operator_complexity`
    describe the free hierarchy; :attr:`n_decoupled` counts the rows left
    out of it.

    Parameters
    ----------
    A:
        SPD CSR matrix.
    theta:
        Strength threshold (0.06-0.1 works well for Poisson-type).
    max_coarse:
        Direct-solve size at the coarsest level.
    presmooth, postsmooth:
        Gauss-Seidel sweeps per side.
    """

    def __init__(
        self,
        A: sp.csr_matrix,
        theta: float = 0.08,
        max_coarse: int = 64,
        max_levels: int = 20,
        presmooth: int = 1,
        postsmooth: int = 1,
    ):
        with obs.phase("amg_setup"):
            self._setup(A, theta, max_coarse, max_levels, presmooth, postsmooth)
            obs.counter("amg_levels", self.n_levels)
            obs.counter("amg_coarse_dofs", (self.grid_sizes() or [0])[-1])
            obs.counter("amg_decoupled_rows", self.n_decoupled)

    def _setup(self, A, theta, max_coarse, max_levels, presmooth, postsmooth):
        A = sp.csr_matrix(A)
        self.A = A  # the full operator (the residual of :meth:`solve`)
        self.presmooth = presmooth
        self.postsmooth = postsmooth
        fixed = _decoupled_rows(A)
        self.fixed = np.flatnonzero(fixed)
        self.free = np.flatnonzero(~fixed)
        self.fixed_diag = A.diagonal()[self.fixed]
        self.levels: list[AMGLevel] = []
        self._coarse_inv = None
        if len(self.free) == 0:
            return  # diagonal matrix: the cycle is the division alone
        Afree = A[self.free][:, self.free] if len(self.fixed) else A
        self.levels.append(AMGLevel(A=Afree, P=None))
        while (
            self.levels[-1].A.shape[0] > max_coarse
            and len(self.levels) < max_levels
        ):
            Af = self.levels[-1].A
            S = strength_graph(Af, theta)
            agg, n_agg = aggregate(S)
            if n_agg >= Af.shape[0]:
                break  # no coarsening possible
            T = sp.csr_matrix(
                (np.ones(Af.shape[0]), (np.arange(Af.shape[0]), agg)),
                shape=(Af.shape[0], n_agg),
            )
            # column-normalize the tentative prolongator
            col_counts = np.asarray(T.sum(axis=0)).ravel()
            T = sp.csr_matrix(T @ sp.diags(1.0 / np.sqrt(col_counts)))
            d = Af.diagonal()
            d = np.where(d != 0, d, 1.0)
            DinvA = sp.diags(1.0 / d) @ Af
            omega = (4.0 / 3.0) / max(_estimate_rho(sp.csr_matrix(DinvA)), 1e-12)
            P = sp.csr_matrix(T - omega * (DinvA @ T))
            R = sp.csr_matrix(P.T)
            self.levels.append(AMGLevel(A=sp.csr_matrix(R @ Af @ P), P=P, R=R))
        for lvl in self.levels[:-1]:
            lvl.L = sp.csr_matrix(sp.tril(lvl.A, format="csr"))
            lvl.U = sp.csr_matrix(sp.triu(lvl.A, format="csr"))
            lvl.Lsolve = _triangular_solver(lvl.L)
            lvl.Usolve = _triangular_solver(lvl.U)
        # coarse direct solve: the symmetric pinv tolerates a semidefinite
        # coarse operator (pure Neumann)
        Ac = self.levels[-1].A.toarray()
        self._coarse_inv = np.linalg.pinv(0.5 * (Ac + Ac.T), hermitian=True)

    # -- stats ---------------------------------------------------------------

    @property
    def n_decoupled(self) -> int:
        """Rows solved by the diagonal division, outside the hierarchy."""
        return len(self.fixed)

    @property
    def n_levels(self) -> int:
        """Number of grid levels of the free hierarchy (including the
        dense coarsest one; 0 when every row is decoupled)."""
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        """Total nnz over all levels / fine nnz of the free hierarchy
        (setup quality metric; 1.0 when there is no hierarchy)."""
        if not self.levels:
            return 1.0
        fine = self.levels[0].A.nnz
        return sum(l.A.nnz for l in self.levels) / max(fine, 1)

    def grid_sizes(self) -> list[int]:
        """Unknown count per level of the free hierarchy, finest first."""
        return [l.A.shape[0] for l in self.levels]

    def frozen_state(self) -> list:
        """Arrays fingerprinted by the lagged-preconditioner sanitizer:
        every level's operator, transfer pair and Gauss-Seidel triangles,
        the coarse dense inverse and the free/fixed split of the cycle —
        in-place mutation of any of these would break the lagging premise
        silently."""
        return [[l.A, l.P, l.R, l.L, l.U] for l in self.levels] + [
            self._coarse_inv, self.free, self.fixed, self.fixed_diag
        ]

    # -- cycle ------------------------------------------------------------------

    def _smooth_forward(
        self, lvl: AMGLevel, x: np.ndarray | None, b: np.ndarray
    ) -> np.ndarray:
        """``presmooth`` forward Gauss-Seidel sweeps; ``x=None`` is the
        zero guess, whose first sweep is ``L^{-1} b`` with no residual."""
        for _ in range(self.presmooth):  # lint: allow-loop (sweep count)
            dx = lvl.Lsolve(b if x is None else b - lvl.A @ x)
            x = dx if x is None else x + dx
        return np.zeros_like(b) if x is None else x

    def _smooth_backward(self, lvl: AMGLevel, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        for _ in range(self.postsmooth):  # lint: allow-loop (sweep count)
            x = x + lvl.Usolve(b - lvl.A @ x)
        return x

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        if k == len(self.levels) - 1:
            return self._coarse_inv @ b
        lvl = self.levels[k]
        coarse = self.levels[k + 1]
        x = self._smooth_forward(lvl, None, b)
        xc = self._cycle(k + 1, coarse.R @ (b - lvl.A @ x))
        x = x + coarse.P @ xc
        return self._smooth_backward(lvl, x, b)

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle with zero initial guess: an SPD approximation of
        ``A^{-1}`` suitable as a MINRES preconditioner block.  ``b`` is
        one right-hand side ``(n,)`` or a block of them ``(n, nb)``."""
        obs.counter("amg_vcycles")
        if not len(self.fixed):
            return self._cycle(0, b)
        z = np.empty_like(b, dtype=np.float64)
        z[self.fixed] = b[self.fixed] / self.fixed_diag.reshape(
            (-1,) + (1,) * (b.ndim - 1)
        )
        if self.levels:
            z[self.free] = self._cycle(0, b[self.free])
        return z

    def solve(
        self, b: np.ndarray, tol: float = 1e-8, maxiter: int = 100
    ) -> tuple[np.ndarray, int, bool]:
        """Stationary V-cycle iteration (used standalone in Fig. 9)."""
        x = np.zeros_like(b)
        nb = np.linalg.norm(b)
        if nb == 0:
            return x, 0, True
        for it in range(1, maxiter + 1):  # lint: allow-loop (solver iteration)
            r = b - self.A @ x
            if np.linalg.norm(r) <= tol * nb:
                return x, it - 1, True
            x = x + self.vcycle(r)
        return x, maxiter, False
