"""2:1 balance of the octree: the one-tree case of the forest's balance.

The paper maintains a *global 2-to-1 balance condition*: edge lengths of
face- and edge-neighboring elements may differ by at most a factor of two.
It is enforced by ripple propagation — each round marks every leaf that
is more than one level coarser than some neighbor (the leaf holding the
center of a same-size neighbor region, found by binary search on the
curve), refines the marked set by one level, and repeats until a fixed
point, within as many rounds as there are levels.

Nothing here is written for the octree alone.  A tree is the one-tree
forest (``unit_cube()``, tree id 0, levels capped at
:data:`~repro.forest.forest.FOREST_MAX_LEVEL`): :func:`balance` is the
forest's frontier ripple :meth:`~repro.forest.forest.Forest._ripple`,
:func:`is_balanced` / :func:`balance_violations` its full-sweep check
:meth:`~repro.forest.forest.Forest._violations`, and the distributed
:func:`~repro.octree.partree.balance_tree` is the forest's exchange loop
on the one-tree ``ParForest`` (DESIGN.md section 4e).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear import LinearOctree
from .morton import MAX_LEVEL
from .octants import OctantArray, directions_for

__all__ = ["balance", "is_balanced", "balance_violations", "BalanceResult"]


@dataclass
class BalanceResult:
    """Outcome of BALANCETREE: the balanced tree plus bookkeeping used by
    the Figure-5 reproduction ('Added by BalanceTree')."""

    tree: LinearOctree
    leaves_added: int
    rounds: int


def _one_tree(leaves: OctantArray):
    """The sorted ``leaves`` as the one-tree forest.  Raises the forest's
    ``ValueError`` on overlapping, unsorted or too deep leaves."""
    from ..forest import Forest, unit_cube

    return Forest(unit_cube(), np.zeros(len(leaves), dtype=np.int64), leaves)


def balance(
    tree: LinearOctree, connectivity: str = "edge", max_rounds: int = MAX_LEVEL
) -> BalanceResult:
    """Refine ``tree`` minimally until it satisfies 2:1 balance.

    Parameters
    ----------
    tree:
        A complete linear octree.
    connectivity:
        ``"face"``, ``"edge"`` (paper default) or ``"corner"``.
    """
    whole = _one_tree(tree.leaves)
    dirs = directions_for(connectivity)
    out, rounds = whole._ripple(dirs, np.uint64(0), whole.fkey_end(), None, max_rounds)
    return BalanceResult(
        tree=LinearOctree(out.octs, presorted=True),
        leaves_added=len(out) - len(tree),
        rounds=rounds,
    )


def balance_violations(tree: LinearOctree, connectivity: str = "edge") -> int:
    """Number of leaves violating the 2:1 condition (0 when balanced)."""
    marks = _one_tree(tree.leaves)._violations(directions_for(connectivity))
    return int(marks.sum())


def is_balanced(tree: LinearOctree, connectivity: str = "edge") -> bool:
    """Check the 2:1 balance condition of a complete tree."""
    return balance_violations(tree, connectivity) == 0
