"""Mesh layer: EXTRACTMESH, INTERPOLATEFIELDS, TRANSFERFIELDS, MARKELEMENTS.

Builds hexahedral finite element meshes (with hanging-node constraints and
ghost layers) from octrees, and implements the field-transfer operations of
the Figure-4 adaptation pipeline.
"""

from .extract import Mesh, extract_mesh, extract_submesh, node_keys
from .fields import interpolate_fields
from .opcache import (
    MeshOperatorCache,
    cache_disabled,
    cache_stats,
    operator_cache,
    reset_cache_stats,
)
from .vtk import VtkSeries, write_vtk

__all__ = [
    "Mesh",
    "extract_mesh",
    "extract_submesh",
    "node_keys",
    "interpolate_fields",
    "MeshOperatorCache",
    "operator_cache",
    "cache_disabled",
    "cache_stats",
    "reset_cache_stats",
    "write_vtk",
    "VtkSeries",
]
