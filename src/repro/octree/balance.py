"""2:1 balance enforcement (serial BALANCETREE and the local ripple kernel).

The paper maintains a *global 2-to-1 balance condition*: edge lengths of
face- and edge-neighboring elements may differ by at most a factor of two.
This module enforces it by ripple propagation — each round marks every
leaf that is more than one level coarser than some neighbor, refines the
marked set by one level, and repeats until a fixed point.  The number of
rounds is bounded by the number of refinement levels, mirroring the
communication-round bound of the parallel algorithm.

The neighbor test uses the Morton interval structure: the center of the
same-size neighbor region in direction ``d`` lies inside exactly one leaf
(completeness), found by binary search; if that leaf is at least two
levels coarser it violates balance and must refine.

:func:`_ripple_local` is the one refinement kernel: the serial
:func:`balance` is its single-rank case, and the distributed
:func:`~repro.octree.partree.balance_tree` runs it on each rank's key
interval.  It is *frontier-driven* — each round looks only at
the samples that can newly violate (DESIGN.md section 4e) — while
:func:`is_balanced` / :func:`balance_violations` keep the full sweep:
they are the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear import LinearOctree
from .morton import MAX_LEVEL, ROOT_LEN, key_range_size, morton_encode
from .octants import OctantArray, directions_for

__all__ = ["balance", "is_balanced", "balance_violations", "BalanceResult"]


@dataclass
class BalanceResult:
    """Outcome of BALANCETREE: the balanced tree plus bookkeeping used by
    the Figure-5 reproduction ('Added by BalanceTree')."""

    tree: LinearOctree
    leaves_added: int
    rounds: int


def _violating_leaf_marks(tree: LinearOctree, dirs: np.ndarray) -> np.ndarray:
    """Mark leaves that are >= 2 levels coarser than a neighboring leaf."""
    leaves = tree.leaves
    h = leaves.lengths()
    mark = np.zeros(len(tree), dtype=bool)
    levels = tree.levels.astype(np.int64)
    for d in dirs:
        nx, ny, nz, ok = leaves.neighbor_anchors(d)
        if not ok.any():
            continue
        px = nx[ok] + h[ok] // 2
        py = ny[ok] + h[ok] // 2
        pz = nz[ok] + h[ok] // 2
        idx = tree.find_containing(px, py, pz)
        viol = levels[idx] < levels[ok] - 1
        mark[idx[viol]] = True
    return mark


def _family_sources(local: OctantArray) -> tuple[OctantArray, np.ndarray]:
    """First-sweep sources: each complete sibling family is represented by
    its parent (8 -> 1), every other leaf by itself.  Returns the source
    octants and the level of the leaves they stand for."""
    keys = local.keys()
    levels = local.level.astype(np.int64)
    n = len(local)
    m = max(n - 7, 0)
    # In a sorted non-overlapping leaf sequence, a first child followed 7
    # places on by an equal-level leaf 7 child-ranges away heads a family.
    first = np.flatnonzero(
        (levels[:m] > 0)
        & (levels[7:] == levels[:m])
        & (keys[7:] - keys[:m] == np.uint64(7) * key_range_size(levels[:m]))
        & (local.sibling_ids()[:m] == 0)
    )
    single = np.ones(n, dtype=bool)
    single[(first[:, None] + np.arange(8)).ravel()] = False
    src = OctantArray.concat([local[first].parents(), local[single]])
    return src, np.concatenate([levels[first], levels[single]])


def _samples(
    src: OctantArray, level: np.ndarray, dirs: np.ndarray, klo: np.uint64, khi: np.uint64
) -> tuple[np.ndarray, np.ndarray]:
    """``(key, level)`` of the center of every source's same-size neighbor
    region inside the domain and inside ``[klo, khi)``: the leaf holding
    ``key`` must reach ``level - 1``."""
    h = src.lengths()
    p = (np.stack([src.x, src.y, src.z]) + h // 2)[:, None, :] + dirs.T[:, :, None] * h
    ok = ((p >= 0) & (p < ROOT_LEN)).all(axis=0)
    pk = morton_encode(p[0][ok], p[1][ok], p[2][ok])
    keep = (pk >= klo) & (pk < khi)
    return pk[keep], np.broadcast_to(level, ok.shape)[ok][keep]


def _ripple_local(
    local: OctantArray,
    dirs: np.ndarray,
    klo: np.uint64,
    khi: np.uint64,
    extra: OctantArray | None,
    max_rounds: int = MAX_LEVEL,
) -> tuple[OctantArray, int]:
    """Balance the sorted leaves of key interval ``[klo, khi)`` against
    themselves (``extra is None``) or, when they already are a fixed point,
    against the static remote boundary leaves ``extra``, refining until a
    local fixed point.  Returns the leaves and the number of rounds.

    Marking rule: the leaf containing the center of a source's same-size
    neighbor region refines when it is two or more levels coarser.  Only
    sample points inside ``[klo, khi)`` are answered — out-of-range
    constraints are the owning side's job, delivered through ``extra``.

    Each round marks exactly what a sweep over all leaves would: a
    complete family samples through its parent (a leaf too coarse for a
    child strictly contains the parent's neighbor region, hence its
    center), and after a refinement only the violating samples — their
    leaf was just replaced — and the new families can violate.
    """
    if extra is None:
        pk, pl = _samples(*_family_sources(local), dirs, klo, khi)
    else:
        pk, pl = _samples(extra, extra.level.astype(np.int64), dirs, klo, khi)
    for rounds in range(max_rounds):
        idx = np.searchsorted(local.keys(), pk, side="right") - 1
        viol = local.level[idx] < pl - 1
        if not viol.any():
            return local, rounds
        mark = np.zeros(len(local), dtype=bool)
        mark[idx[viol]] = True
        split = local[mark]
        nk, nl = _samples(split, split.level.astype(np.int64) + 1, dirs, klo, khi)
        pk, pl = np.concatenate([pk[viol], nk]), np.concatenate([pl[viol], nl])
        local = local.refine(mark)
    raise RuntimeError("balance did not converge")


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
    leaves, rounds = _ripple_local(
        tree.leaves,
        directions_for(connectivity),
        np.uint64(0),
        key_range_size(0),
        None,
        max_rounds,
    )
    return BalanceResult(
        tree=LinearOctree(leaves, presorted=True),
        leaves_added=len(leaves) - len(tree),
        rounds=rounds,
    )


def balance_violations(tree: LinearOctree, connectivity: str = "edge") -> int:
    """Number of leaves violating the 2:1 condition (0 when balanced)."""
    dirs = directions_for(connectivity)
    return int(_violating_leaf_marks(tree, dirs).sum())


def is_balanced(tree: LinearOctree, connectivity: str = "edge") -> bool:
    """Check the 2:1 balance condition of a complete tree."""
    return balance_violations(tree, connectivity) == 0
