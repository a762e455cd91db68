"""Forest-of-octrees AMR on general geometries (the P4EST layer)."""

from .connectivity import (
    Connectivity,
    FaceConnection,
    brick_connectivity,
    unit_cube,
)
from .cubed_sphere import RadialProjectionGeometry, cubed_sphere_connectivity
from .faces import FaceClassification, match_faces
from .forest import FOREST_MAX_LEVEL, Forest, forest_key, sample_queries
from .parforest import ParForest
from .recursive import balance_forest_recursive

__all__ = [
    "Connectivity",
    "FaceConnection",
    "brick_connectivity",
    "unit_cube",
    "cubed_sphere_connectivity",
    "RadialProjectionGeometry",
    "Forest",
    "ParForest",
    "FOREST_MAX_LEVEL",
    "forest_key",
    "sample_queries",
    "balance_forest_recursive",
    "FaceClassification",
    "match_faces",
]
