"""Unit + property tests for the linear octree: the one-tree forest on
``unit_cube()`` (completeness, refine, coarsen), and the mesh's point
lookup (``Mesh.containing_leaf``) on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.octree import ROOT_LEN


def random_adapted_tree(rng: np.random.Generator, rounds: int = 3, start_level: int = 1):
    """Refine random leaf subsets a few times: generic complete test tree."""
    tree = Forest.uniform(unit_cube(), start_level)
    for _ in range(rounds):
        mask = rng.random(len(tree)) < 0.3
        tree = tree.refine(mask)
    return tree


class TestCompleteness:
    def test_uniform_complete(self):
        for lvl in (0, 1, 2, 3):
            assert Forest.uniform(unit_cube(), lvl).is_complete()

    def test_incomplete_detected(self):
        t = Forest.uniform(unit_cube(), 1)
        broken = Forest(t.conn, t.tree_ids[:-1], t.octs[:-1])
        assert not broken.is_complete()

    def test_refine_preserves_completeness(self):
        rng = np.random.default_rng(0)
        tree = random_adapted_tree(rng)
        assert tree.is_complete()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_refinement_complete(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_adapted_tree(rng, rounds=2)
        assert tree.is_complete()
        # leaves strictly increasing in Morton order
        k = tree.octs.keys().astype(object)
        assert np.all(np.diff(k) > 0)


class TestRefineCoarsen:
    def test_refine_none_returns_self(self):
        t = Forest.uniform(unit_cube(), 1)
        assert t.refine(np.zeros(8, dtype=bool)) is t

    def test_refine_counts(self):
        t = Forest.uniform(unit_cube(), 1)
        mask = np.zeros(8, dtype=bool)
        mask[2] = True
        t2 = t.refine(mask)
        assert len(t2) == 7 + 8

    def test_mask_length_checked(self):
        t = Forest.uniform(unit_cube(), 1)
        with pytest.raises(ValueError):
            t.refine(np.zeros(3, dtype=bool))
        with pytest.raises(ValueError):
            t.coarsen(np.zeros(3, dtype=bool))

    def test_coarsen_full_family(self):
        t = Forest.uniform(unit_cube(), 2)  # 64 leaves, 8 families
        mask = np.zeros(64, dtype=bool)
        mask[:8] = True  # first family (contiguous in Morton order)
        t2, nfam = t.coarsen(mask)
        assert nfam == 1
        assert len(t2) == 64 - 8 + 1
        assert t2.is_complete()

    def test_coarsen_partial_family_ignored(self):
        t = Forest.uniform(unit_cube(), 2)
        mask = np.zeros(64, dtype=bool)
        mask[:7] = True  # 7 of 8 siblings
        t2, nfam = t.coarsen(mask)
        assert nfam == 0
        assert t2 is t

    def test_coarsen_mixed_levels_not_a_family(self):
        t = Forest.uniform(unit_cube(), 1)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        t = t.refine(mask)  # leaves: 8 fine + 7 coarse
        # mark everything; only the 8 fine siblings form a family
        t2, nfam = t.coarsen(np.ones(len(t), dtype=bool))
        assert nfam == 1
        assert len(t2) == 8
        assert t2.is_complete()

    def test_coarsen_refine_roundtrip(self):
        rng = np.random.default_rng(42)
        tree = random_adapted_tree(rng)
        n = len(tree)
        mask = np.zeros(n, dtype=bool)
        mask[n // 3] = True
        fine = tree.refine(mask)
        # coarsen exactly the new children back
        back, nfam = fine.coarsen(fine.octs.level > tree.octs.level.max())
        assert back.is_complete()

    def test_coarsen_root_level_guard(self):
        t = Forest.uniform(unit_cube(), 0)
        t2, nfam = t.coarsen(np.ones(1, dtype=bool))
        assert nfam == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_coarsen_preserves_completeness(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_adapted_tree(rng, rounds=2)
        mask = rng.random(len(tree)) < 0.7
        t2, _ = tree.coarsen(mask)
        assert t2.is_complete()


class TestQueries:
    def test_find_containing_uniform(self):
        mesh = extract_mesh(Forest.uniform(unit_cube(), 1))
        h = ROOT_LEN // 2
        idx = mesh.containing_leaf(np.array([[0, 0, 0], [h, 0, 0], [0, h, 0]]))
        # anchor points map to leaves 0, 1 (x-neighbor), 2 (y-neighbor)
        assert idx[0] == 0
        assert mesh.leaves.x[idx[1]] == h and mesh.leaves.y[idx[1]] == 0
        assert mesh.leaves.y[idx[2]] == h

    def test_every_center_found_in_own_leaf(self):
        rng = np.random.default_rng(7)
        tree, _ = random_adapted_tree(rng).balance("corner")
        lv = tree.octs
        centers = np.stack([lv.x, lv.y, lv.z], axis=1) + (lv.lengths() // 2)[:, None]
        idx = extract_mesh(tree).containing_leaf(centers)
        np.testing.assert_array_equal(idx, np.arange(len(tree)))

    def test_level_histogram(self):
        t = Forest.uniform(unit_cube(), 1)
        mask = np.zeros(8, dtype=bool)
        mask[0] = True
        t = t.refine(mask)
        assert t.level_histogram() == {1: 7, 2: 8}

