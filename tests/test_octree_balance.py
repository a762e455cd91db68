"""Unit + property tests for 2:1 balance (repro.octree.balance)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import LinearOctree, balance, balance_violations, is_balanced


def center_refined_tree(depth: int) -> LinearOctree:
    """Repeatedly refine the leaf anchored at the domain center.

    The center is a corner shared by all eight level-1 leaves, so the deep
    leaf's face neighbors across the center stay at level 1 — a genuine
    2:1 violation whose closure must ripple outward.  (Refining at a
    *domain* corner never unbalances: each refinement leaves behind
    intermediate-level siblings that grade the tree automatically.)
    """
    from repro.octree import ROOT_LEN

    mid = ROOT_LEN // 2
    tree = LinearOctree.uniform(1)
    for _ in range(depth):
        mask = np.zeros(len(tree), dtype=bool)
        idx = tree.find_containing(np.array([mid]), np.array([mid]), np.array([mid]))[0]
        mask[idx] = True
        tree = tree.refine(mask)
    return tree


class TestBalanceBasics:
    def test_uniform_is_balanced(self):
        assert is_balanced(LinearOctree.uniform(2))

    def test_single_refine_is_balanced(self):
        t = LinearOctree.uniform(1)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        assert is_balanced(t.refine(mask))

    def test_two_level_jump_detected(self):
        t = center_refined_tree(2)  # origin leaf at level 3, neighbor at 1
        assert not is_balanced(t)
        assert balance_violations(t) > 0

    def test_balance_fixes_violations(self):
        t = center_refined_tree(3)
        res = balance(t)
        assert is_balanced(res.tree)
        assert res.tree.is_complete()
        assert res.leaves_added > 0
        assert res.rounds >= 1

    def test_balance_idempotent(self):
        t = center_refined_tree(3)
        res = balance(t)
        res2 = balance(res.tree)
        assert res2.leaves_added == 0
        assert res2.tree.leaves.equals(res.tree.leaves)

    def test_balance_keeps_original_leaves_or_descendants(self):
        """Balance only refines: every original leaf is either present or
        fully covered by descendants."""
        t = center_refined_tree(3)
        res = balance(t)
        orig_start, orig_end = t.leaves.key_ranges()
        new_start = res.tree.keys
        # each original leaf's interval start must appear as a leaf anchor
        assert np.all(np.isin(orig_start, new_start))

    def test_ripple_depth(self):
        """Deep corner refinement requires multiple ripple rounds."""
        t = center_refined_tree(5)
        res = balance(t)
        assert res.rounds >= 2
        assert is_balanced(res.tree)

    def test_nonconvergence_guard(self):
        t = center_refined_tree(4)
        with pytest.raises(RuntimeError):
            balance(t, max_rounds=1)


class TestConnectivityVariants:
    def test_face_weaker_than_edge_weaker_than_corner(self):
        t = center_refined_tree(4)
        n_face = len(balance(t, "face").tree)
        n_edge = len(balance(t, "edge").tree)
        n_corner = len(balance(t, "corner").tree)
        assert n_face <= n_edge <= n_corner

    def test_corner_balance_implies_edge_balance(self):
        t = center_refined_tree(4)
        bt = balance(t, "corner").tree
        assert is_balanced(bt, "edge")
        assert is_balanced(bt, "face")


class TestBalanceProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_trees_balance(self, seed):
        rng = np.random.default_rng(seed)
        tree = LinearOctree.uniform(1)
        for _ in range(3):
            mask = rng.random(len(tree)) < 0.25
            tree = tree.refine(mask)
        res = balance(tree)
        assert res.tree.is_complete()
        assert is_balanced(res.tree)
        # balance never removes resolution
        assert res.tree.levels.max() == tree.levels.max()
        assert len(res.tree) >= len(tree)


class TestCheckMemory:
    def test_corner_check_peak_per_leaf(self):
        """``is_balanced`` samples one direction at a time.  Sampling every
        direction at once, as the forest's check once did, peaked near
        2 100 B per leaf; the bench runs this check on a gathered tree."""
        rng = np.random.default_rng(0)
        tree = LinearOctree.uniform(3)
        for frac in (0.5, 0.2, 0.12):
            tree = tree.refine(rng.random(len(tree)) < frac)
        tree = balance(tree, "corner").tree
        assert 15_000 < len(tree) < 30_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert is_balanced(tree, "corner")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / len(tree) <= 400
