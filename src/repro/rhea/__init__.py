"""RHEA: the adaptive mantle convection application (Sections II, III, VI)."""

from .convection import (
    ConfigError,
    MantleConvection,
    RheaConfig,
    buoyancy,
    conductive_profile,
)
from .error import (
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
    "gradient_indicator",
    "viscosity_jump_indicator",
    "combined_indicator",
    "element_gradient",
    "ArrheniusViscosity",
    "YieldingViscosity",
    "element_temperature",
    "strain_rate_invariant",
]
