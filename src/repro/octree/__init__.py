"""Octree substrate: Morton keys, octant arrays and the curve helpers.

This package implements the data structures of Section IV of the paper:
Morton space-filling-curve keys (:mod:`.morton`), vectorized octant arrays
(:mod:`.octants`), and the parallel ALPS functions NEWTREE / REFINETREE /
COARSENTREE / BALANCETREE / PARTITIONTREE with the curve helpers they
share with the forest (:mod:`.partree`).  The octree is the one-tree
forest on ``unit_cube()``: serially a :class:`~repro.forest.forest.Forest`
(refine, coarsen, 2:1 balance and the checks are its methods) and
distributed a :class:`~repro.forest.parforest.ParForest`, so octree
levels are capped at the forest's 19.
"""

from .morton import (
    MAX_LEVEL,
    ROOT_LEN,
    key_range_size,
    morton_decode,
    morton_encode,
    octant_length,
)
from .faces import row_lookup
from .octants import DIRECTIONS, OctantArray, directions_for
from .partree import (
    TransferPlan,
    balance_tree,
    coarsen_tree,
    gather_tree,
    is_balanced,
    new_tree,
    owners_of_keys,
    partition_markers,
    partition_tree,
    refine_tree,
)
from .traverse import box_owner_pairs, dilated_boxes

__all__ = [
    "MAX_LEVEL",
    "ROOT_LEN",
    "morton_encode",
    "morton_decode",
    "key_range_size",
    "octant_length",
    "OctantArray",
    "DIRECTIONS",
    "directions_for",
    "is_balanced",
    "TransferPlan",
    "new_tree",
    "refine_tree",
    "coarsen_tree",
    "balance_tree",
    "partition_tree",
    "partition_markers",
    "owners_of_keys",
    "gather_tree",
    "box_owner_pairs",
    "dilated_boxes",
    "row_lookup",
]
