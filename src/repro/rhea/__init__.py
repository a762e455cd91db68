"""RHEA: the adaptive mantle convection application (Sections II, III, VI)."""

from .convection import (
    ConfigError,
    MantleConvection,
    RheaConfig,
    buoyancy,
    conductive_profile,
)
from .diagnostics import (
    depth_profile,
    depth_profiles_table,
    plateness,
    surface_mobility,
)
from .error import (
    adjoint_weighted_indicator,
    combined_indicator,
    element_gradient,
    gradient_indicator,
    viscosity_jump_indicator,
)
from .viscosity import (
    ArrheniusViscosity,
    YieldingViscosity,
    element_temperature,
    strain_rate_invariant,
)

__all__ = [
    "ConfigError",
    "MantleConvection",
    "RheaConfig",
    "buoyancy",
    "conductive_profile",
    "depth_profile",
    "depth_profiles_table",
    "plateness",
    "surface_mobility",
    "gradient_indicator",
    "viscosity_jump_indicator",
    "combined_indicator",
    "adjoint_weighted_indicator",
    "element_gradient",
    "ArrheniusViscosity",
    "YieldingViscosity",
    "element_temperature",
    "strain_rate_invariant",
]
