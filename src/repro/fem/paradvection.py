"""Distributed SUPG advection-diffusion (the Section-V benchmark solver).

Each rank assembles the stabilized operator from its *owned* elements on
the local union (owned + ghost) mesh; the semi-discrete residual is then
globally assembled with one shared-dof sum-exchange per operator
application, and the lumped mass likewise (once).  The explicit
predictor-corrector step therefore costs two exchanges per time step plus
one allreduce for the CFL bound — the classic surface-to-volume
communication pattern that makes the transport solver weakly scalable.

The solver is :class:`~repro.fem.advection.AdvectionDiffusion`, the
serial driver's and the fleet's, built on the rank's
:class:`~repro.mesh.parmesh.ParMesh`: it takes the owned elements, the
``exchange_sum`` and the CFL ``allreduce(min)`` from it.  All this class
adds is the velocity callable, evaluated at the owned element centres.
At P = 1 a step is bitwise the serial solver's on the same mesh
(verified in the test suite).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mesh.parmesh import ParMesh
from .advection import AdvectionDiffusion

__all__ = ["ParAdvectionDiffusion"]


class ParAdvectionDiffusion(AdvectionDiffusion):
    """Distributed explicit SUPG transport on a :class:`ParMesh`.

    Parameters
    ----------
    pm:
        The distributed mesh.
    kappa:
        Diffusivity.
    velocity:
        Callable mapping (m, 3) physical points to (m, 3) velocities;
        evaluated at the owned element centres.
    source:
        Uniform internal heating.
    dirichlet:
        ``(axis, side, value)`` tuples as in the serial solver.
    """

    def __init__(
        self,
        pm: ParMesh,
        kappa: float,
        velocity: Callable[[np.ndarray], np.ndarray],
        source: float = 0.0,
        dirichlet: list[tuple[int, int, float]] | None = None,
    ):
        vel = velocity(pm.mesh.element_centers()[pm.owned_elements])
        self._build(pm.mesh, float(kappa), vel, source, dirichlet, pm)

    # its own binding of the shared loop, timed under its own name
    advance = AdvectionDiffusion.advance
