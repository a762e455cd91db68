"""The block-diagonal Stokes preconditioner ``diag(Atilde, Stilde)`` with
``Atilde`` as three smoothed-aggregation AMG V-cycles, one per velocity
component — the paper's BoomerAMG arrangement (Sec. III), which the
serial driver ran until geometric multigrid replaced it.

Kept as the reference the GMG preconditioner is checked against (same
solution, comparable iteration count) and as the harness for the
AMG-in-a-Stokes-solve tests.  ``Stilde`` is the same
inverse-viscosity-weighted lumped pressure mass as the GMG path.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.fem.stokes import poisson_blocks
from repro.solvers.amg import SmoothedAggregationAMG


class StokesBlockPreconditioner:
    """Builds the three AMG hierarchies (under the ``prec_setup`` phase)
    and applies ``P^{-1}``."""

    def __init__(self, stokes, theta: float = 0.08, **amg_opts):
        self.n = stokes.mesh.n_independent
        with obs.phase("prec_setup"):
            self.amg = [
                SmoothedAggregationAMG(K, theta=theta, **amg_opts)
                for K in poisson_blocks(stokes.mesh, stokes.viscosity, stokes.bc_kind)
            ]
            self.schur_diag = stokes.schur_diagonal()
        self.n_vcycles = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``z = P^{-1} r``: three scalar V-cycles plus a diagonal scaling."""
        n = self.n
        z = np.empty_like(r)
        for a in range(3):
            z[a * n : (a + 1) * n] = self.amg[a].vcycle(r[a * n : (a + 1) * n])
            self.n_vcycles += 1
        z[3 * n :] = r[3 * n :] / self.schur_diag
        return z

    def frozen_state(self) -> list:
        """The three component hierarchies' fingerprinted arrays."""
        return [a.frozen_state() for a in self.amg]
