"""The block-diagonal Stokes preconditioner of Section III.

    P = diag(Atilde, Stilde)

``Atilde``: for each velocity component, one multigrid V-cycle on the
scalar variable-viscosity Poisson operator (the vector-Laplacian
approximation of the viscous block) — either algebraic
(:class:`StokesBlockPreconditioner`, the paper's BoomerAMG analogue) or
geometric on the forest hierarchy, the three components in one cycle
(:class:`repro.solvers.gmg.GMGStokesPreconditioner`).  ``Stilde``: the
inverse of the inverse-viscosity-weighted lumped pressure mass
(diagonal, spectrally equivalent to the Schur complement
``B A^{-1} B^T + C``).

Either application is SPD, captures both the element-size and the
viscosity variation, and keeps the MINRES iteration count essentially
independent of problem size — the Figure-2 result.  Setup amortization
across Picard passes and time steps (the paper's reuse of one AMG setup
between mesh adaptations) is handled by
:class:`LaggedStokesPreconditioner`, which wraps either kind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from .amg import SmoothedAggregationAMG
from .gmg import GMGStokesPreconditioner

if TYPE_CHECKING:
    from ..fem.stokes import StokesSystem

__all__ = ["StokesBlockPreconditioner", "LaggedStokesPreconditioner"]


class StokesBlockPreconditioner:
    """Builds the AMG hierarchies (setup phase) and applies P^{-1}.

    Setup cost is reported separately from application cost because the
    paper reuses one AMG setup across the ~16 time steps between mesh
    adaptations (Figures 8-9).
    """

    def __init__(self, stokes: StokesSystem, theta: float = 0.08, **amg_opts):
        self.stokes = stokes
        self.n = stokes.mesh.n_independent
        with obs.phase("prec_setup"):
            self.amg = [
                SmoothedAggregationAMG(K, theta=theta, **amg_opts)
                for K in stokes.poisson_blocks()
            ]
            self.schur_diag = stokes.schur_diagonal()
        if np.any(self.schur_diag <= 0):
            raise AssertionError("Schur diagonal must be positive")
        self.n_vcycles = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = P^{-1} r: three scalar V-cycles plus a diagonal scaling."""
        n = self.n
        z = np.empty_like(r)
        for a in range(3):
            z[a * n : (a + 1) * n] = self.amg[a].vcycle(r[a * n : (a + 1) * n])
            self.n_vcycles += 1
        z[3 * n :] = r[3 * n :] / self.schur_diag
        return z

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)

    def refresh_schur(self, stokes: StokesSystem) -> None:
        """Rebind to a (re-assembled) system, refreshing only the cheap
        diagonal Schur approximation.  The AMG hierarchies are kept: they
        remain SPD and spectrally equivalent as long as the viscosity has
        not drifted far (the lagged-preconditioner premise)."""
        self.stokes = stokes
        self.schur_diag = stokes.schur_diagonal()
        if np.any(self.schur_diag <= 0):
            raise AssertionError("Schur diagonal must be positive")

    def frozen_state(self) -> list:
        """Arrays fingerprinted by the lagged-preconditioner sanitizer
        (the three component hierarchies)."""
        return [a.frozen_state() for a in self.amg]

    @property
    def operator_complexity(self) -> float:
        """Mean AMG operator complexity (total nnz over all levels /
        fine nnz) across the three component hierarchies."""
        return float(np.mean([a.operator_complexity for a in self.amg]))


class LaggedStokesPreconditioner:
    """Setup-amortizing wrapper around either multigrid block
    preconditioner (``kind="amg"`` — :class:`StokesBlockPreconditioner` —
    or ``kind="gmg"`` —
    :class:`repro.solvers.gmg.GMGStokesPreconditioner`).

    The paper reuses one AMG setup across the ~16 time steps between mesh
    adaptations (Figures 8-9); this wrapper implements that policy for the
    Picard/timestep loop: the hierarchy is rebuilt only when

    - the mesh object changed (adaptation produces a new mesh), or
    - the element-viscosity field drifted beyond ``rtol`` in relative
      max-norm since the hierarchy was last built.

    The diagonal Schur block is refreshed on every call (it is cheap and
    viscosity-dependent), so only the expensive hierarchy setup is
    lagged.  ``rtol = 0`` reuses the hierarchy only for a
    bitwise-unchanged viscosity, which leaves solver results bitwise
    identical to rebuild-every-pass.  A GMG rebuild on an unchanged mesh
    keeps the preconditioner object, its hierarchy and its transfers and
    redoes only what the viscosity enters (level matrices, smoother
    bounds, the coarse factorization); lagging skips those too.
    """

    def __init__(
        self, rtol: float = 0.5, theta: float = 0.08, kind: str = "amg", **prec_opts
    ):
        if kind not in ("amg", "gmg"):
            raise ValueError(f"kind must be 'amg' or 'gmg', got {kind!r}")
        self.rtol = float(rtol)
        self.theta = theta
        self.kind = kind
        self.prec_opts = prec_opts
        self._prec: StokesBlockPreconditioner | GMGStokesPreconditioner | None = None
        self._mesh = None
        self._bc_kind = None
        self._eta_ref: np.ndarray | None = None
        #: fingerprint of the lagged state (multigrid hierarchy + eta
        #: reference), taken at build under REPRO_SANITIZE=1 and verified
        #: before every reuse — in-place mutation of the memoized
        #: hierarchy would silently break the lagging premise
        self._frozen_token: str | None = None
        self.n_builds = 0
        self.n_reuses = 0

    def _frozen_state(self) -> list:
        assert self._prec is not None
        return self._prec.frozen_state() + [self._eta_ref]

    def drift(self, eta: np.ndarray) -> float:
        """Relative max-norm viscosity drift since the last AMG build."""
        if self._eta_ref is None or eta.shape != self._eta_ref.shape:
            return np.inf
        return float(np.max(np.abs(eta - self._eta_ref) / self._eta_ref))

    def get(
        self, stokes: StokesSystem
    ) -> StokesBlockPreconditioner | GMGStokesPreconditioner:
        """The preconditioner for ``stokes``, reusing the multigrid setup
        when the mesh is unchanged and the viscosity drift is within
        ``rtol``."""
        eta = stokes.viscosity
        same_grid = (
            self._prec is not None
            and self._mesh is stokes.mesh
            and self._bc_kind == stokes.bc_kind
        )
        if same_grid and self.drift(eta) <= self.rtol:
            self.n_reuses += 1
            obs.counter("prec_reuses")
            if self._frozen_token is not None:
                from ..analysis.sanitize import maybe_verify

                maybe_verify(
                    self._frozen_state(),
                    self._frozen_token,
                    context=f"LaggedStokesPreconditioner {self.kind.upper()} hierarchy",
                )
            self._prec.refresh_schur(stokes)
        else:
            self.n_builds += 1
            obs.counter("prec_builds")
            if self.kind == "gmg" and same_grid:
                # hierarchy and transfers do not depend on the viscosity
                with obs.phase("prec_setup"):
                    self._prec.update_viscosity(eta)
                    self._prec.refresh_schur(stokes)
            elif self.kind == "gmg":
                self._prec = GMGStokesPreconditioner(stokes, **self.prec_opts)
            else:
                self._prec = StokesBlockPreconditioner(
                    stokes, theta=self.theta, **self.prec_opts
                )
            self._mesh = stokes.mesh
            self._bc_kind = stokes.bc_kind
            self._eta_ref = eta.copy()
            from ..analysis.sanitize import maybe_freeze

            self._frozen_token = maybe_freeze(self._frozen_state())
        return self._prec

    def invalidate(self) -> None:
        """Drop the lagged hierarchy so the next :meth:`get` rebuilds
        (checkpoint restore and tests use this to force a cold start)."""
        self._prec = None
        self._mesh = None
        self._eta_ref = None
        self._frozen_token = None
