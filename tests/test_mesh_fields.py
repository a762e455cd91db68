"""Tests for INTERPOLATEFIELDS (serial field transfer between meshes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import extract_mesh, interpolate_fields
from repro.octree import LinearOctree, balance


def mesh_pair(seed=0):
    """An adapted mesh and a further-refined version of it."""
    rng = np.random.default_rng(seed)
    t1 = balance(LinearOctree.uniform(2).refine(
        rng.random(64) < 0.3), "corner").tree
    m1 = extract_mesh(t1)
    t2 = balance(t1.refine(rng.random(len(t1)) < 0.3), "corner").tree
    m2 = extract_mesh(t2)
    return m1, m2


class TestInterpolateFields:
    def test_refinement_is_exact_embedding(self):
        """Refined meshes nest, so any FE field transfers exactly."""
        m1, m2 = mesh_pair(seed=1)
        rng = np.random.default_rng(0)
        u1 = m1.expand(rng.standard_normal(m1.n_independent))
        u2 = interpolate_fields(m1, u1, m2)
        # evaluate both fields at random points: identical
        pts = rng.random((100, 3))
        np.testing.assert_allclose(
            m1.interpolate_at(u1, pts), m2.interpolate_at(u2, pts), atol=1e-10
        )

    def test_coarsening_is_injection(self):
        """Coarse mesh nodes sample the fine field values exactly."""
        m1, m2 = mesh_pair(seed=2)  # m2 finer
        rng = np.random.default_rng(1)
        u2 = m2.expand(rng.standard_normal(m2.n_independent))
        u1 = interpolate_fields(m2, u2, m1)
        # coarse independent node values equal the fine field there
        pts = m1.node_coords()[m1.indep_nodes]
        np.testing.assert_allclose(
            u1[m1.indep_nodes], m2.interpolate_at(u2, pts), atol=1e-10
        )

    def test_result_is_hanging_consistent(self):
        m1, m2 = mesh_pair(seed=3)
        u1 = m1.expand(np.linspace(0, 1, m1.n_independent))
        u2 = interpolate_fields(m1, u1, m2)
        np.testing.assert_allclose(u2, m2.expand(u2[m2.indep_nodes]), atol=1e-12)

    def test_domain_mismatch_rejected(self):
        m1, _ = mesh_pair()
        m3 = extract_mesh(LinearOctree.uniform(1), domain=(2.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            interpolate_fields(m1, np.zeros(m1.n_nodes), m3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_constants_always_preserved(self, seed):
        m1, m2 = mesh_pair(seed=seed)
        u2 = interpolate_fields(m1, np.full(m1.n_nodes, 3.7), m2)
        np.testing.assert_allclose(u2, 3.7, atol=1e-12)
