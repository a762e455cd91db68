"""Linear and time-stepping solvers: MINRES, smoothed-aggregation AMG,
geometric multigrid on the forest hierarchy, the
block-diagonal Stokes preconditioners, and explicit integrators.

See SOLVERS.md at the repository root for the full Stokes solve path
(MINRES -> block preconditioner -> AMG vs GMG), the lagging and
warm-start policies, and the tuning cookbook.
"""

from .amg import (
    AMGLevel,
    SmoothedAggregationAMG,
    aggregate,
    strength_graph,
)
from .blockprec import LaggedStokesPreconditioner, StokesBlockPreconditioner
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
    "StokesBlockPreconditioner",
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
