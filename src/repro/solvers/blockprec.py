"""The setup-lagged Stokes block preconditioner of Section III.

    P = diag(Atilde, Stilde)

``Atilde``: one geometric-multigrid V-cycle over the stacked velocity
components on the scalar variable-viscosity Poisson operator (the
vector-Laplacian approximation of the viscous block),
:class:`repro.solvers.gmg.GMGStokesPreconditioner`.  ``Stilde``: the
inverse of the inverse-viscosity-weighted lumped pressure mass
(diagonal, spectrally equivalent to the Schur complement
``B A^{-1} B^T + C``).

The paper applies one BoomerAMG V-cycle per velocity component.
Geometric multigrid on the octree's own coarsening hierarchy replaced
that arrangement as the driver's preconditioner: on identical inputs it
takes fewer MINRES iterations, a cheaper setup and about half the peak
memory, the ordering Clevenger & Heister (arXiv:1907.06696) measure on
adaptive variable-viscosity Stokes.  The three-AMG preconditioner is the
test oracle ``tests/oracles/amg_block.py``, and :mod:`repro.solvers.amg`
stays as the subject of the Fig. 9 study.

Setup amortization across Picard passes and time steps (the paper's
reuse of one multigrid setup between mesh adaptations) is
:class:`LaggedStokesPreconditioner`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..parallel.sanitize import maybe_freeze, maybe_verify
from .gmg import GMGStokesPreconditioner

if TYPE_CHECKING:
    from ..fem.stokes import StokesSystem

__all__ = ["LaggedStokesPreconditioner"]


class LaggedStokesPreconditioner:
    """Setup-amortizing wrapper around
    :class:`repro.solvers.gmg.GMGStokesPreconditioner` (``max_coarse``
    goes to it).

    The paper reuses one multigrid setup across the ~16 time steps
    between mesh adaptations (Figures 8-9); :meth:`get` implements that
    policy for the Picard/timestep loop with three outcomes:

    - a new mesh object (adaptation produces one) or boundary condition
      builds a new preconditioner;
    - on the same grid, an element viscosity that drifted beyond
      ``rtol`` in relative max-norm since the last build redoes in place
      only what the viscosity enters (level matrices, smoother bounds,
      the coarse factorization) and keeps hierarchy and transfers;
    - anything else reuses the held levels.

    The diagonal Schur block is refreshed on every call (it is cheap and
    viscosity-dependent), so only the multigrid setup is lagged.
    ``rtol = 0`` reuses only for a bitwise-unchanged viscosity, which
    leaves solver results bitwise identical to rebuild-every-pass.
    """

    def __init__(self, rtol: float = 0.5, max_coarse: int = 80):
        self.rtol = float(rtol)
        self.max_coarse = max_coarse
        self._prec: GMGStokesPreconditioner | None = None
        self._mesh = None
        self._bc_kind = None
        self._eta_ref: np.ndarray | None = None
        #: fingerprint of the lagged state (multigrid levels + eta
        #: reference), taken at build under REPRO_SANITIZE=1 and verified
        #: before every reuse — in-place mutation of the memoized
        #: levels would silently break the lagging premise
        self._frozen_token: str | None = None
        self.n_builds = 0
        self.n_reuses = 0

    def _frozen_state(self) -> list:
        assert self._prec is not None
        return self._prec.frozen_state() + [self._eta_ref]

    def drift(self, eta: np.ndarray) -> float:
        """Relative max-norm viscosity drift since the last build."""
        if self._eta_ref is None or eta.shape != self._eta_ref.shape:
            return np.inf
        return float(np.max(np.abs(eta - self._eta_ref) / self._eta_ref))

    def get(self, stokes: StokesSystem) -> GMGStokesPreconditioner:
        """The preconditioner for ``stokes``: built, updated in place or
        reused (the three outcomes of the class docstring)."""
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
                maybe_verify(
                    self._frozen_state(),
                    self._frozen_token,
                    context="LaggedStokesPreconditioner GMG hierarchy",
                )
            self._prec.refresh_schur(stokes)
            return self._prec
        self.n_builds += 1
        obs.counter("prec_builds")
        if same_grid:
            # hierarchy and transfers do not depend on the viscosity
            with obs.phase("prec_setup"):
                self._prec.update_viscosity(eta)
                self._prec.refresh_schur(stokes)
        else:
            self._prec = GMGStokesPreconditioner(stokes, max_coarse=self.max_coarse)
        self._mesh = stokes.mesh
        self._bc_kind = stokes.bc_kind
        self._eta_ref = eta.copy()
        self._frozen_token = maybe_freeze(self._frozen_state())
        return self._prec

    def invalidate(self) -> None:
        """Drop the lagged levels so the next :meth:`get` rebuilds
        (tests use this to force a cold start)."""
        self._prec = None
        self._mesh = None
        self._eta_ref = None
        self._frozen_token = None
