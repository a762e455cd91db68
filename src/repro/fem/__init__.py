"""Trilinear hexahedral finite elements on octree meshes.

Element matrices are exact tensor products (axis-aligned boxes), assembly
folds hanging-node constraints algebraically, and the two discretizations
the paper uses are provided: SUPG advection-diffusion (energy equation)
and the stabilized variable-viscosity Stokes saddle system.
"""

from .advection import AdvectionDiffusion, element_velocity_from_nodal, supg_tau
from .assembly import (
    Z3,
    apply_dirichlet,
    assemble_divergence,
    assemble_scalar,
    assemble_vector,
    assembly_counts,
    reset_assembly_counts,
    vector_dofs,
)
from .hexops import ElementOps
from .paradvection import ParAdvectionDiffusion
from .stokes import StokesSystem

__all__ = [
    "ElementOps",
    "assemble_scalar",
    "assemble_vector",
    "assemble_divergence",
    "apply_dirichlet",
    "Z3",
    "vector_dofs",
    "assembly_counts",
    "reset_assembly_counts",
    "AdvectionDiffusion",
    "element_velocity_from_nodal",
    "supg_tau",
    "StokesSystem",
    "ParAdvectionDiffusion",
]
