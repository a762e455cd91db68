"""Preconditioned MINRES (Paige & Saunders 1975), serial and batched.

The paper solves the stabilized Stokes saddle system with MINRES: each
iteration needs one operator application, two inner products and fixed
vector storage — exactly the properties quoted in Section III.  The
preconditioner must be symmetric positive definite (the block-diagonal
``diag(Atilde, Stilde)`` of :mod:`repro.solvers.blockprec` is).

There is one recurrence (Lanczos + Givens rotations, tracking the
preconditioned residual norm), :func:`_paige_saunders`, and it is
batched: vectors keep the shape of the right-hand side — ``(n,)`` or
``(n, nb)`` with one independent system per column — and every
recurrence scalar is an ``(nb,)`` array.  :func:`minres` is its
one-column case (1-D vectors, BLAS ``dot`` for the inner products, so a
serial solve is bitwise the classic scalar recurrence);
:func:`batched_minres` is the fleet's entry, whose columns converge, hit
their iteration cap and are compacted away independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .. import obs

__all__ = ["minres", "MinresResult", "batched_minres", "BatchedMinresResult"]


@dataclass
class MinresResult:
    """Solution and convergence history of a MINRES run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)  # preconditioned norms


@dataclass
class BatchedMinresResult:
    """Per-column solutions and convergence of a batched MINRES run."""

    X: np.ndarray  # (n, nb) solution columns
    iterations: np.ndarray  # (nb,) iteration at which each column stopped
    converged: np.ndarray  # (nb,) bool
    residuals: list = field(default_factory=list)  # (nb,) preconditioned norms


def _as_op(A) -> Callable[[np.ndarray], np.ndarray]:
    if callable(A):
        return A
    if sp.issparse(A) or isinstance(A, np.ndarray):
        return lambda x: A @ x
    raise TypeError("A must be callable or a matrix")


def minres(
    A,
    b: np.ndarray,
    M: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int | None = None,
) -> MinresResult:
    """Solve the symmetric (possibly indefinite) system ``A x = b``.

    Parameters
    ----------
    A:
        Symmetric operator (sparse matrix or callable).
    M:
        SPD preconditioner *application* ``z = M(r)`` (approximates
        ``A^{-1}`` in the block-diagonal sense); identity when omitted.
    x0:
        Optional warm start.  A nonzero ``x0`` changes the convergence
        reference from the initial residual to ``||b||_M`` so a warm
        start cannot be held to a tighter absolute tolerance than a
        cold one; ``x0=None`` (or all zeros) is the classic cold start.
    tol:
        Relative tolerance on the preconditioned residual norm
        (measured against ``||b||_M``, see ``x0``).
    """
    x, iterations, converged, residuals = _solve(
        A, b, M, x0, tol, maxiter, None
    )
    return MinresResult(
        x=x, iterations=int(iterations[0]), converged=bool(converged[0]),
        residuals=[float(r[0]) for r in residuals],
    )


def batched_minres(
    A,
    B: np.ndarray,
    M=None,
    X0: np.ndarray | None = None,
    tol=1e-8,
    maxiter=None,
    factory=None,
) -> BatchedMinresResult:
    """Solve ``A X = B`` column-wise with one shared Krylov recurrence.

    The operator and preconditioner act on ``(n, nb)`` matrices whose
    columns are independent systems (the batched matfree apply).  ``tol``
    and ``maxiter`` may be scalars or per-column arrays.  Columns stop
    independently: once ``|phibar_j| <= tol_j * ref_j`` (converged) or
    the iteration reaches ``maxiter_j`` (capped, ``converged[j]`` stays
    False) the column's solution update is masked to zero, freezing it
    bitwise while the others iterate, and ``iterations[j]`` records the
    stopping iteration.  A zero column (zero rhs, zero guess) therefore
    converges at iteration 0 untouched — the masked-tenant mechanism of
    :class:`repro.fleet.batch.BatchGroup`.

    ``factory(cols) -> (apply_A, apply_M)``, when given, enables *column
    compaction*: once at least half the working columns have stopped,
    they are dropped from the recurrence and the operators are rebuilt
    for the surviving global column indices ``cols``, so the
    width-proportional work (wide applies, preconditioner sweeps) tracks
    the shrinking active set.  All recurrence operations are columnwise,
    so compaction leaves the per-column arithmetic — iteration counts
    included — unchanged; the half-width hysteresis keeps rebuilds to
    ``O(log nb)`` per solve.

    As in :func:`minres`, warm-started columns measure convergence
    against ``||b||_M`` rather than the initial residual; cold columns
    use the initial residual (the two coincide).

    Example::

        res = batched_minres(op.apply, F, M=prec, tol=np.full(nb, 1e-6))
        res.X[:, res.converged]
    """
    return BatchedMinresResult(*_solve(A, B, M, X0, tol, maxiter, factory))


def _solve(A, b, M, x0, tol, maxiter, factory):
    """:func:`_paige_saunders` under the ``minres`` phase, with the
    ``minres_calls`` / ``minres_iterations`` counters (summed over
    columns): the one place either entry's telemetry is emitted."""
    with obs.phase("minres"):
        out = _paige_saunders(A, b, M, x0, tol, maxiter, factory)
    obs.counter("minres_calls")
    obs.counter("minres_iterations", int(out[1].sum()))
    return out


def _paige_saunders(A, b, M, x0, tol, maxiter, factory):
    """``(x, iterations, converged, residuals)``: ``x`` shaped like ``b``
    (``(n,)`` or ``(n, nb)``), the rest per column."""
    apply_A = _as_op(A)
    apply_M = M if M is not None else (lambda r: r)
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    nb = 1 if b.ndim == 1 else b.shape[1]
    # per-column inner products; BLAS dot for one column keeps the serial
    # solve bitwise the classic scalar recurrence
    dots = (
        (lambda u, v: np.array([u @ v], dtype=np.float64))
        if b.ndim == 1
        else (lambda u, v: np.einsum("ij,ij->j", u, v))
    )
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (nb,))
    cap = np.broadcast_to(np.asarray(5 * n if maxiter is None else maxiter), (nb,))
    x = (
        np.zeros(b.shape, dtype=np.float64)
        if x0 is None
        else np.array(x0, dtype=np.float64)
    )
    tiny, eps = np.finfo(np.float64).tiny, np.finfo(np.float64).eps

    warm = np.atleast_1d(np.any(x != 0.0, axis=0))
    # cold columns of x are zero, and the operator acts column-wise, so
    # their residual columns equal b exactly
    r1 = (b - apply_A(x)) if warm.any() else b.copy()
    y = apply_M(r1)
    beta1 = dots(r1, y)
    if np.any(beta1 < 0):
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)
    residuals = [beta1.copy()]
    # Convergence is measured against ||b||_M, not the initial residual:
    # with a warm start the initial residual is already small and a
    # residual-relative test would demand an absolutely tighter solution
    # than the cold start it is meant to accelerate.  For x0 = 0 the two
    # references coincide, so cold-start behavior is unchanged.
    if warm.any():
        refw = dots(b, apply_M(b))
        if np.any(refw < 0):
            raise ValueError("preconditioner is not positive definite")
        ref = np.where(warm, np.sqrt(refw), beta1)
    else:
        ref = beta1.copy()
    iterations = np.zeros(nb, dtype=np.int64)
    converged = beta1 <= tol * ref
    active = ~converged & (cap > 0)
    if not active.any():
        return x, iterations, converged, residuals

    oldb = np.zeros(nb, dtype=np.float64)
    beta = beta1.copy()
    dbar = np.zeros(nb, dtype=np.float64)
    epsln = np.zeros(nb, dtype=np.float64)
    phibar = beta1.copy()
    cs = np.full(nb, -1.0)
    sn = np.zeros(nb, dtype=np.float64)
    w = np.zeros(b.shape, dtype=np.float64)
    w2 = np.zeros(b.shape, dtype=np.float64)
    r2 = r1

    # compaction bookkeeping: `idx` maps working columns to global ones,
    # `x_out` is the full-width result once columns have been retired,
    # `res_full` freezes retired columns' final preconditioned residuals
    # in the history
    idx = np.arange(nb)
    x_out = None
    tol_w, ref_w, cap_w = tol, ref, cap
    res_full = beta1.copy()

    for itn in range(1, int(cap.max()) + 1):
        # stopped columns keep recurring on garbage (their beta may hit
        # zero); every division is clamped so they stay finite, and their
        # x columns are frozen by the `step` mask below
        s = 1.0 / np.maximum(beta, tiny)
        v = s * y
        y = apply_A(v)
        if itn >= 2:
            y = y - (beta / np.maximum(oldb, tiny)) * r1
        alfa = dots(v, y)
        y = y - (alfa / np.maximum(beta, tiny)) * r2
        r1 = r2
        r2 = y
        y = apply_M(r2)
        oldb = beta
        beta2 = dots(r2, y)
        if (active & (beta2 < 0)).any():
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(np.maximum(beta2, 0.0))

        # apply previous and compute next Givens rotation, per column
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar * gbar + beta * beta)
        gamma = np.maximum(gamma, eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # update the solution (recurrence scalars broadcast over columns)
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + np.where(active, phi, 0.0) * w

        resid = np.abs(phibar)
        res_full[idx] = resid
        residuals.append(res_full.copy())
        hit = resid <= tol_w * ref_w
        stopped = active & (hit | (itn >= cap_w))  # converged or capped
        if stopped.any():
            converged[idx[stopped & hit]] = True
            iterations[idx[stopped]] = itn
            active &= ~stopped
            if not active.any():
                break

        if factory is not None and 2 * int(active.sum()) <= idx.size:
            # retire stopped columns: flush the working block into the
            # full-width result, slice every recurrence array down to the
            # survivors, and rebuild the operators on their global
            # indices.  Columnwise arithmetic is untouched, so iteration
            # counts match the uncompacted recurrence exactly.
            keep = active
            if x_out is None:
                x_out = x  # first event: x is still full width
            else:
                x_out[:, idx] = x
            idx = idx[keep]
            x = x[:, keep]
            r1, r2, y = r1[:, keep], r2[:, keep], y[:, keep]
            w, w2 = w[:, keep], w2[:, keep]
            oldb, beta, dbar = oldb[keep], beta[keep], dbar[keep]
            epsln, phibar = epsln[keep], phibar[keep]
            cs, sn = cs[keep], sn[keep]
            tol_w, ref_w, cap_w = tol_w[keep], ref_w[keep], cap_w[keep]
            active = np.ones(idx.size, dtype=bool)
            apply_A, apply_M = factory(idx)

    if x_out is None:
        return x, iterations, converged, residuals
    x_out[:, idx] = x
    return x_out, iterations, converged, residuals
