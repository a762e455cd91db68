"""Linear and time-stepping solvers: MINRES, geometric multigrid on the
forest hierarchy and the lagged block-diagonal Stokes preconditioner
built on it, smoothed-aggregation AMG (the subject of the Fig. 9
study), and explicit integrators.

See SOLVERS.md at the repository root for the full Stokes solve path
(MINRES -> lagged block preconditioner -> GMG V-cycle), the lagging and
warm-start policies, and the tuning cookbook.
"""

from .amg import (
    AMGLevel,
    SmoothedAggregationAMG,
    aggregate,
    strength_graph,
)
from .blockprec import LaggedStokesPreconditioner
from .gmg import (
    ChebyshevSmoother,
    GeometricMultigrid,
    GMGStokesPreconditioner,
    GridHierarchy,
    StackedPoissonLevel,
    coarse_viscosities,
    mesh_hierarchy,
    prolongation,
)
from .minres import BatchedMinresResult, MinresResult, batched_minres, minres
from .timestep import LowStorageRK45, heun_step

__all__ = [
    "SmoothedAggregationAMG",
    "AMGLevel",
    "aggregate",
    "strength_graph",
    "LaggedStokesPreconditioner",
    "GMGStokesPreconditioner",
    "GeometricMultigrid",
    "GridHierarchy",
    "StackedPoissonLevel",
    "ChebyshevSmoother",
    "mesh_hierarchy",
    "coarse_viscosities",
    "prolongation",
    "minres",
    "MinresResult",
    "batched_minres",
    "BatchedMinresResult",
    "LowStorageRK45",
    "heun_step",
]
