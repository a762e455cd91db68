"""Octree substrate: Morton-ordered linear octrees, serial and distributed.

This package implements the data structures of Section IV of the paper:
Morton space-filling-curve keys (:mod:`.morton`), vectorized octant arrays
(:mod:`.octants`), complete linear octrees with refinement/coarsening
(:mod:`.linear`), and the distributed tree with the parallel ALPS
functions NEWTREE / REFINETREE / COARSENTREE / BALANCETREE /
PARTITIONTREE (:mod:`.partree`).  The distributed tree is the one-tree
:class:`~repro.forest.parforest.ParForest`, and serial coarsening and
2:1 balance (:mod:`.linear`, :mod:`.balance`) are the one-tree case of
:mod:`repro.forest`'s, so octree levels are capped at its 19.
"""

from .balance import BalanceResult, balance, balance_violations, is_balanced
from .linear import LinearOctree, complete_from
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
    "LinearOctree",
    "complete_from",
    "balance",
    "is_balanced",
    "balance_violations",
    "BalanceResult",
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
