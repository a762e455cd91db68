"""MARKELEMENTS: threshold-based refinement/coarsening marking.

Given a per-element error indicator, MARKELEMENTS selects elements to
refine and coarsen so that the *expected* element count after adaptation
lands within a tolerance of a target.  The paper avoids a global sort of
indicators; instead, global thresholds are adjusted iteratively using only
collective reductions.  We implement the same scheme in two phases, each
a bisection costing one allreduce per iteration:

1. **Refinement threshold.**  If the mesh is below target, bisect
   ``theta_r`` so the refinement count supplies the deficit.  Otherwise
   keep a fixed high threshold (``refine_frac * max(eta)``) so resolution
   keeps following the solution as it moves — the churn visible in
   Figure 5.
2. **Coarsening threshold.**  Bisect ``theta_c`` in ``[0, theta_r)`` so
   the expected post-adaptation count returns to the target.

Works serially (``comm=None``) or SPMD — every rank executes the identical
deterministic bisection, so all ranks agree on the thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..octree import OctantArray, morton_encode

__all__ = ["mark_elements", "MarkResult", "relocate_refine_marks"]

#: Threshold comparisons run on indicators quantized to this many buckets
#: of ``eta / max(eta)``.  Distributed indicator evaluation carries tiny
#: rank-count-dependent rounding noise (~1e-11 relative, from the order
#: of ghost-exchange summation); the bisection converges its threshold
#: right into the data, so an unquantized ``eta > theta`` comparison can
#: flip a marginal mark when the rank count changes.  On a 2^-24 grid the
#: noise is ~4 orders of magnitude below the bucket width, making marks
#: deterministic and rank-count-invariant.
_QSCALE = 2.0**24


@dataclass
class MarkResult:
    """Masks chosen by MARKELEMENTS plus the bookkeeping used in Fig. 5."""

    refine: np.ndarray
    coarsen: np.ndarray
    refine_threshold: float
    coarsen_threshold: float
    expected_count: int
    iterations: int


def _gsum(comm, val: int) -> int:
    return int(val) if comm is None else int(comm.allreduce(int(val)))


def mark_elements(
    eta: np.ndarray,
    levels: np.ndarray,
    target: int,
    *,
    comm=None,
    tol: float = 0.05,
    refine_frac: float = 0.5,
    min_level: int = 0,
    max_level: int = 18,
    max_iterations: int = 30,
) -> MarkResult:
    """Choose refine/coarsen masks whose expected outcome is ``target``
    elements (within ``tol`` relative tolerance).

    Parameters
    ----------
    eta:
        Per-(local-)element non-negative error indicator.
    levels:
        Per-element octree level (enforces ``min_level`` / ``max_level``).
    target:
        Desired global element count after adaptation.
    comm:
        Optional :class:`~repro.parallel.SimComm` for SPMD marking.
    refine_frac:
        When the mesh is at/above target, elements with
        ``eta > refine_frac * max(eta)`` are still refined (resolution
        follows the moving solution); coarsening compensates.

    Notes
    -----
    The expected count assumes every refined element nets +7 leaves and
    every 8 coarsen-marked elements net -7; the realized outcome differs
    by partial sibling families and by whatever BALANCETREE adds, exactly
    as in the paper (Figure 5 tracks both).
    """
    eta = np.asarray(eta, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.int64)
    if eta.shape != levels.shape:
        raise ValueError("eta and levels must align")
    if np.any(eta < 0):
        raise ValueError("error indicator must be non-negative")

    local_max = float(eta.max()) if len(eta) else 0.0
    emax = local_max if comm is None else comm.allreduce(local_max, op="max")
    n_global = _gsum(comm, len(eta))
    zeros = np.zeros(len(eta), dtype=bool)
    if emax == 0.0:
        return MarkResult(zeros, zeros.copy(), 0.0, 0.0, n_global, 0)

    can_refine = levels < max_level
    can_coarsen = levels > min_level
    iterations = 0
    # quantized indicator: all threshold tests are exact integer compares
    qeta = np.floor(eta / emax * _QSCALE)

    # -- phase 1: refinement threshold ------------------------------------
    deficit = target - n_global
    if deficit > 7:
        # bisect theta_r for ~deficit/7 refinements
        want = deficit / 7.0
        lo, hi = 0.0, 1.0
        best = None
        for _ in range(max_iterations):
            iterations += 1
            s = 0.5 * (lo + hi)
            refine = (qeta > np.floor(s * _QSCALE)) & can_refine
            r = _gsum(comm, refine.sum())
            if best is None or abs(r - want) < abs(best[0] - want):
                best = (r, refine, s)
            if abs(r - want) <= max(tol * want, 1.0):
                break
            if r > want:
                lo = s
            else:
                hi = s
        _, refine, s_r = best
        theta_r = emax * s_r
    else:
        theta_r = emax * refine_frac
        refine = (qeta > np.floor(refine_frac * _QSCALE)) & can_refine
        r = _gsum(comm, refine.sum())
        # churn cap: following the solution must not blow the budget —
        # if the fixed threshold marks more than ~25% of the target's
        # worth of refinement, bisect the threshold up to the cap.
        cap = max(int(0.25 * target / 7), 1)
        if r > cap:
            lo, hi = refine_frac, 1.0
            best = (r, refine, refine_frac)
            for _ in range(max_iterations):
                iterations += 1
                s = 0.5 * (lo + hi)
                refine = (qeta > np.floor(s * _QSCALE)) & can_refine
                r = _gsum(comm, refine.sum())
                if abs(r - cap) < abs(best[0] - cap):
                    best = (r, refine, s)
                if abs(r - cap) <= max(tol * cap, 1.0):
                    break
                if r > cap:
                    lo = s
                else:
                    hi = s
            r, refine, s_r = best
            theta_r = emax * s_r
    r_count = _gsum(comm, refine.sum())

    # -- phase 2: coarsening threshold ------------------------------------
    base = n_global + 7 * r_count

    def expected(theta_c: float):
        coarsen = (qeta < np.floor(theta_c / emax * _QSCALE)) & can_coarsen & ~refine
        c = _gsum(comm, coarsen.sum())
        return base - 7 * (c // 8), coarsen

    if base <= target * (1 + tol):
        coarsen = zeros.copy()
        theta_c = 0.0
        n_new = base
    else:
        lo, hi = 0.0, max(theta_r, emax * 1e-12)
        best = None
        for _ in range(max_iterations):
            iterations += 1
            theta_c = 0.5 * (lo + hi)
            n_new, coarsen = expected(theta_c)
            if best is None or abs(n_new - target) < abs(best[0] - target):
                best = (n_new, coarsen, theta_c)
            if abs(n_new - target) <= tol * target:
                break
            if n_new > target:
                lo = theta_c  # coarsen more
            else:
                hi = theta_c
        n_new, coarsen, theta_c = best

    return MarkResult(
        refine=refine,
        coarsen=coarsen,
        refine_threshold=theta_r,
        coarsen_threshold=theta_c,
        expected_count=n_new,
        iterations=iterations,
    )


def relocate_refine_marks(
    leaves: OctantArray, refine: np.ndarray, coarsened: OctantArray
) -> np.ndarray:
    """The refine mask of the sorted ``leaves`` carried onto the sorted
    leaves ``coarsened`` that COARSENTREE left of them (a serial tree's
    or one rank's segment of the distributed one).

    Refine-marked leaves are excluded from COARSENTREE, so each survives
    it untouched and is re-located by its center point; a hit at a
    different level means the leaf was coarsened away, which is an error
    in the caller's masks.
    """
    ref = leaves[refine]
    mask = np.zeros(len(coarsened), dtype=bool)
    if len(ref):
        h = ref.lengths()
        centers = morton_encode(ref.x + h // 2, ref.y + h // 2, ref.z + h // 2)
        idx = np.searchsorted(coarsened.keys(), centers, side="right") - 1
        if not np.array_equal(coarsened.level[idx], ref.level):
            raise AssertionError("refine-marked leaf was coarsened away")
        mask[idx] = True
    return mask
