"""Unit + property tests for 2:1 balance of the octree, the one-tree
forest on ``unit_cube()`` (``Forest.balance`` / ``Forest.is_balanced``)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import Forest, unit_cube
from repro.octree import directions_for

from .oracles.forest_balance import find_leaf


def center_refined_tree(depth: int) -> Forest:
    """Repeatedly refine the leaf anchored at the domain center.

    The center is a corner shared by all eight level-1 leaves, so the deep
    leaf's face neighbors across the center stay at level 1 — a genuine
    2:1 violation whose closure must ripple outward.  (Refining at a
    *domain* corner never unbalances: each refinement leaves behind
    intermediate-level siblings that grade the tree automatically.)
    """
    from repro.octree import ROOT_LEN

    mid = ROOT_LEN // 2
    tree = Forest.uniform(unit_cube(), 1)
    for _ in range(depth):
        mask = np.zeros(len(tree), dtype=bool)
        idx = find_leaf(tree.octs, np.array([mid]), np.array([mid]), np.array([mid]))[0]
        mask[idx] = True
        tree = tree.refine(mask)
    return tree


class TestBalanceBasics:
    def test_uniform_is_balanced(self):
        assert Forest.uniform(unit_cube(), 2).is_balanced()

    def test_single_refine_is_balanced(self):
        t = Forest.uniform(unit_cube(), 1)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        assert t.refine(mask).is_balanced()

    def test_two_level_jump_detected(self):
        t = center_refined_tree(2)  # origin leaf at level 3, neighbor at 1
        assert not t.is_balanced()
        assert t._violations(directions_for("edge")).sum() > 0

    def test_balance_fixes_violations(self):
        t = center_refined_tree(3)
        bt, added = t.balance()
        assert bt.is_balanced()
        assert bt.is_complete()
        assert added > 0

    def test_balance_idempotent(self):
        t = center_refined_tree(3)
        bt, _ = t.balance()
        bt2, added = bt.balance()
        assert added == 0
        assert bt2.octs.equals(bt.octs)

    def test_balance_keeps_original_leaves_or_descendants(self):
        """Balance only refines: every original leaf is either present or
        fully covered by descendants."""
        t = center_refined_tree(3)
        bt, _ = t.balance()
        orig_start, orig_end = t.octs.key_ranges()
        new_start = bt.octs.keys()
        # each original leaf's interval start must appear as a leaf anchor
        assert np.all(np.isin(orig_start, new_start))

    def test_ripple_depth(self):
        """Deep corner refinement requires multiple ripple rounds."""
        t = center_refined_tree(5)
        with pytest.raises(RuntimeError, match="did not converge"):
            t.balance(max_rounds=2)
        assert t.balance()[0].is_balanced()

    def test_nonconvergence_guard(self):
        t = center_refined_tree(4)
        with pytest.raises(RuntimeError):
            t.balance(max_rounds=1)


class TestConnectivityVariants:
    def test_face_weaker_than_edge_weaker_than_corner(self):
        t = center_refined_tree(4)
        n_face = len(t.balance("face")[0])
        n_edge = len(t.balance("edge")[0])
        n_corner = len(t.balance("corner")[0])
        assert n_face <= n_edge <= n_corner

    def test_corner_balance_implies_edge_balance(self):
        t = center_refined_tree(4)
        bt, _ = t.balance("corner")
        assert bt.is_balanced("edge")
        assert bt.is_balanced("face")


class TestBalanceProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_trees_balance(self, seed):
        rng = np.random.default_rng(seed)
        tree = Forest.uniform(unit_cube(), 1)
        for _ in range(3):
            mask = rng.random(len(tree)) < 0.25
            tree = tree.refine(mask)
        bt, _ = tree.balance()
        assert bt.is_complete()
        assert bt.is_balanced()
        # balance never removes resolution
        assert bt.octs.level.max() == tree.octs.level.max()
        assert len(bt) >= len(tree)


class TestCheckMemory:
    def test_corner_check_peak_per_leaf(self):
        """``Forest.is_balanced`` samples one direction at a time.  Sampling every
        direction at once, as the forest's check once did, peaked near
        2 100 B per leaf; the bench runs this check on a gathered tree."""
        rng = np.random.default_rng(0)
        tree = Forest.uniform(unit_cube(), 3)
        for frac in (0.5, 0.2, 0.12):
            tree = tree.refine(rng.random(len(tree)) < frac)
        tree, _ = tree.balance("corner")
        assert 15_000 < len(tree) < 30_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert tree.is_balanced("corner")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / len(tree) <= 400
