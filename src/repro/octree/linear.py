"""Linear octrees: complete, sorted leaf sets.

The paper's octrees are stored *linearly* — only the leaves, sorted along
the Morton space-filling curve (Figure 3).  Parent/child relations are
implicit in the keys.  A linear octree over the root domain is *complete*
when its leaves tile the root exactly, which is equivalent to the sorted
key intervals ``[key_i, key_i + range_i)`` partitioning
``[0, 8**MAX_LEVEL)`` without gaps or overlaps.

:class:`LinearOctree` maintains this invariant through refinement and
coarsening, and supports the point-location queries (``find_containing``)
that the balance and mesh-extraction algorithms are built on.  Its
coarsening and 2:1 balance are the one-tree forest's
(:func:`repro.octree.balance._one_tree`).
"""

from __future__ import annotations

import numpy as np

from .morton import MAX_LEVEL, key_range_size, morton_encode
from .octants import OctantArray

__all__ = ["LinearOctree", "complete_from"]


def complete_from(seeds: OctantArray) -> "LinearOctree":
    """Build the minimal complete octree containing the given octants as
    leaves (p4est's ``complete`` operation, used to seed trees from
    scattered refinement requests).

    ``seeds`` must be pairwise non-overlapping.  Starting from the root,
    every leaf that strictly contains a deeper seed is split; the result
    is complete, contains every seed as a leaf, and is minimal.
    """
    if len(seeds) == 0:
        return LinearOctree.uniform(0)
    seeds = seeds.sort()
    skeys = seeds.keys()
    send = skeys + key_range_size(seeds.level)
    # overlap check: sorted intervals must be disjoint
    if np.any(send[:-1] > skeys[1:]):
        raise ValueError("seed octants overlap")
    tree = LinearOctree(OctantArray.root(), presorted=True)
    for _ in range(MAX_LEVEL + 1):
        lkeys = tree.keys
        lend = lkeys + key_range_size(tree.levels)
        # for each leaf: is there a seed strictly inside it (deeper level)?
        lo = np.searchsorted(skeys, lkeys, side="left")
        hi = np.searchsorted(skeys, lend, side="left")
        has_seed = hi > lo
        safe_lo = np.clip(lo, 0, len(seeds) - 1)
        deeper = seeds.level[safe_lo].astype(np.int64) > tree.levels.astype(np.int64)
        # splitting is needed when the first contained seed is deeper than
        # the leaf; when the seed *equals* the leaf, it is already a leaf
        split = has_seed & deeper
        if not split.any():
            return tree
        tree = tree.refine(split)
    raise AssertionError("complete_from did not terminate")

_TOTAL_KEYS = np.uint64(1) << np.uint64(3 * MAX_LEVEL)


class LinearOctree:
    """A complete linear octree (sorted leaf set over the whole root).

    Parameters
    ----------
    leaves:
        The leaf octants.  Sorted on construction; completeness can be
        checked with :meth:`is_complete` (constructors preserve it).
    """

    def __init__(self, leaves: OctantArray, *, presorted: bool = False):
        self.leaves = leaves if presorted else leaves.sort()

    # -- constructors -----------------------------------------------------------

    @classmethod
    def uniform(cls, level: int) -> "LinearOctree":
        """Uniformly refined tree with ``8**level`` leaves."""
        return cls(OctantArray.uniform(level), presorted=True)

    # -- basic properties ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.leaves)

    def __repr__(self) -> str:
        return f"LinearOctree({self.leaves!r})"

    @property
    def keys(self) -> np.ndarray:
        return self.leaves.keys()

    @property
    def levels(self) -> np.ndarray:
        return self.leaves.level

    def is_complete(self) -> bool:
        """Do the leaves tile the root domain exactly?"""
        if len(self) == 0:
            return False
        start, end = self.leaves.key_ranges()
        if start[0] != 0 or end[-1] != _TOTAL_KEYS:
            return False
        return bool(np.all(end[:-1] == start[1:]))

    def level_histogram(self) -> dict[int, int]:
        """Number of leaves per refinement level (Figure 5, right panel)."""
        lv, counts = np.unique(self.levels, return_counts=True)
        return {int(a): int(b) for a, b in zip(lv, counts)}

    # -- queries ------------------------------------------------------------------

    def find_containing(self, px, py, pz) -> np.ndarray:
        """Index of the leaf containing each integer point.

        Relies on completeness: every finest-level Morton key in
        ``[0, 8**MAX_LEVEL)`` lies in exactly one leaf's key interval.
        """
        return np.searchsorted(self.keys, morton_encode(px, py, pz), side="right") - 1

    # -- adaptation ------------------------------------------------------------------

    def refine(self, mask: np.ndarray) -> "LinearOctree":
        """Replace each marked leaf by its 8 children.

        The result stays sorted and complete: children of a leaf are
        contiguous in Morton order exactly where the parent was.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length mismatch")
        if not mask.any():
            return self
        return LinearOctree(self.leaves.refine(mask), presorted=True)

    def coarsen(self, mask: np.ndarray) -> tuple["LinearOctree", int]:
        """Replace complete families of 8 marked sibling leaves by their
        parent.  Returns the new tree and the number of families coarsened.

        Families are only coarsened when *all eight* siblings are leaves
        and marked (same rule as COARSENTREE in the paper).  It is the
        one-tree forest's :meth:`~repro.forest.forest.Forest.coarsen`, so
        a leaf deeper than ``FOREST_MAX_LEVEL`` raises its ``ValueError``.
        """
        from .balance import _one_tree

        forest, nfam = _one_tree(self.leaves).coarsen(mask)
        return (LinearOctree(forest.octs, presorted=True) if nfam else self), nfam
