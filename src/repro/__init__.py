"""repro — reproduction of Burstedde et al., "Scalable Adaptive Mantle
Convection Simulation on Petascale Supercomputers" (SC 2008).

Subpackages
-----------
parallel:
    Simulated-MPI SPMD substrate (threads + MPI-like communicator), its
    runtime sanitizer (CheckedComm, freeze guards, delivery fuzzer;
    ``REPRO_SANITIZE=1``) and the Ranger machine model used to price
    measured operation counts at the paper's core counts.
octree:
    Morton-ordered linear octrees, serial and distributed; the parallel
    ALPS tree functions (NewTree, Refine/CoarsenTree, BalanceTree,
    PartitionTree).
mesh:
    Hexahedral mesh extraction from octrees: hanging-node constraints,
    ghost layers, global dof numbering; field interpolation and transfer;
    MarkElements.
fem:
    Trilinear hexahedral finite elements: SUPG advection-diffusion,
    variable-viscosity Stokes blocks, constraint-eliminated assembly.
solvers:
    MINRES, geometric multigrid and the block-diagonal Stokes
    preconditioner built on it, smoothed-aggregation AMG (the Fig. 9
    study), explicit time integrators.
rhea:
    The mantle convection application: viscosity laws with yielding,
    the coupled Boussinesq time loop, error indicators.
forest:
    Forest-of-octrees (p4est): multi-tree connectivities, inter-tree
    2:1 balance, cubed-sphere spherical shells.
mangll:
    High-order nodal discontinuous Galerkin on hexahedra: LGL operators,
    matrix vs tensor-product derivative kernels, DG advection.
amr:
    The end-to-end adaptation pipeline of Figure 4 with per-function
    timing breakdowns.
checkpoint:
    Rank-sharded checkpoint/restart: self-describing manifests,
    digest-verified shards, resume onto any rank count via Morton-curve
    repartition.
obs:
    Observability: hierarchical per-rank phase timers with
    communication attribution, Chrome-trace export, and the paper's
    Table IV-VI-style report generator (see OBSERVABILITY.md).

The developer checks — the SPMD static linter (rules R3-R6 and R10),
the markdown link checker and the example-flag checker — are stdlib-only
scripts in ``tools/`` at the repository root, not part of the package.
"""

__version__ = "0.1.0"
