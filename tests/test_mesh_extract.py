"""Tests for serial mesh extraction and hanging-node constraints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh


def refined_tree(seed=0, rounds=2, frac=0.3, start=1):
    rng = np.random.default_rng(seed)
    tree = Forest.uniform(unit_cube(), start)
    for _ in range(rounds):
        mask = rng.random(len(tree)) < frac
        tree = tree.refine(mask)
    return tree.balance("corner")[0]


def one_refined_tree():
    """Uniform level-1 tree with one leaf refined: the canonical
    hanging-node configuration."""
    t = Forest.uniform(unit_cube(), 1)
    mask = np.zeros(8, dtype=bool)
    mask[0] = True
    return t.refine(mask).balance("corner")[0]


class TestUniformMesh:
    def test_counts_level1(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 1))
        assert m.n_elements == 8
        assert m.n_nodes == 27  # 3^3 lattice
        assert m.n_independent == 27
        assert not m.hanging.any()

    def test_counts_level2(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 2))
        assert m.n_elements == 64
        assert m.n_nodes == 125  # 5^3

    def test_element_nodes_vertex_order(self):
        """Vertex i of an element sits at anchor + corner_offset(i)*h."""
        m = extract_mesh(Forest.uniform(unit_cube(), 1))
        leaves = m.tree.octs
        h = leaves.lengths()
        for i in range(8):
            dx, dy, dz = (i & 1), (i >> 1) & 1, (i >> 2) & 1
            expect = np.stack(
                [leaves.x + dx * h, leaves.y + dy * h, leaves.z + dz * h], axis=1
            )
            np.testing.assert_array_equal(
                m.node_coords_int[m.element_nodes[:, i]], expect
            )

    def test_z_is_identity_for_conforming(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 1))
        assert (m.Z - np.eye(27)).nnz == 0 if hasattr(m.Z - np.eye(27), "nnz") else True
        np.testing.assert_allclose(m.Z.toarray(), np.eye(27))

    def test_domain_scaling(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 1), domain=(8.0, 4.0, 1.0))
        c = m.node_coords()
        assert c[:, 0].max() == 8.0
        assert c[:, 1].max() == 4.0
        assert c[:, 2].max() == 1.0
        np.testing.assert_allclose(m.element_sizes()[0], [4.0, 2.0, 0.5])


class TestHangingNodes:
    def test_one_refined_leaf_hanging_count(self):
        m = extract_mesh(one_refined_tree())
        # refining one of 8 corner leaves adds face centers on 3 interior
        # faces and edge midpoints on interior edges
        assert m.hanging.sum() > 0
        # hanging nodes carry no dofs
        assert m.n_independent == m.n_nodes - m.hanging.sum()

    def test_constraint_rows_are_partition_of_unity(self):
        """Every Z row sums to 1 (constant fields are reproduced)."""
        m = extract_mesh(refined_tree())
        row_sums = np.asarray(m.Z.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-12)

    def test_no_hanging_parent_in_Z(self):
        m = extract_mesh(refined_tree(seed=3))
        # Z columns correspond to independent nodes only, by construction;
        # check shape and that each independent node maps to itself
        assert m.Z.shape == (m.n_nodes, m.n_independent)
        sub = m.Z[m.indep_nodes]
        np.testing.assert_allclose(sub.toarray(), np.eye(m.n_independent))

    def test_linear_field_is_continuous(self):
        """Expanding a linear function of the independent nodes must give
        exactly the linear function at hanging nodes (trilinear elements
        reproduce linears; constraints interpolate linearly)."""
        m = extract_mesh(refined_tree(seed=1))
        coords = m.node_coords()
        lin = 2.0 * coords[:, 0] - 3.0 * coords[:, 1] + 0.5 * coords[:, 2] + 1.0
        u_full = m.expand(lin[m.indep_nodes])
        np.testing.assert_allclose(u_full, lin, atol=1e-10)

    def test_hanging_weights_are_half_or_quarter_composites(self):
        m = extract_mesh(one_refined_tree())
        hang_rows = m.Z[np.flatnonzero(m.hanging)]
        for i in range(hang_rows.shape[0]):
            w = hang_rows[i].data
            assert np.all(w > 0)
            assert np.isclose(w.sum(), 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_meshes_reproduce_linears(self, seed):
        m = extract_mesh(refined_tree(seed=seed, rounds=2, frac=0.25))
        coords = m.node_coords()
        lin = coords @ np.array([1.3, -0.7, 2.9]) + 0.4
        u_full = m.expand(lin[m.indep_nodes])
        np.testing.assert_allclose(u_full, lin, atol=1e-9)


class TestBoundary:
    def test_boundary_mask_uniform(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 1))
        assert m.boundary_node_mask().sum() == 26  # 27 - 1 interior
        assert m.boundary_node_mask(axis=0, side=0).sum() == 9
        assert m.boundary_node_mask(axis=2, side=1).sum() == 9


class TestInterpolateAt:
    def test_nodal_exactness(self):
        m = extract_mesh(refined_tree(seed=2))
        coords = m.node_coords()
        lin = coords @ np.array([1.0, 2.0, 3.0])
        u_full = m.expand(lin[m.indep_nodes])
        # evaluate at element centers: linear -> exact
        centers = m.element_centers()
        vals = m.interpolate_at(u_full, centers)
        np.testing.assert_allclose(vals, centers @ np.array([1.0, 2.0, 3.0]), atol=1e-9)

    def test_constant_field(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 2))
        u = np.ones(m.n_nodes)
        pts = np.random.default_rng(0).random((50, 3))
        np.testing.assert_allclose(m.interpolate_at(u, pts), 1.0)

    def test_domain_scaled_interpolation(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 2), domain=(8.0, 4.0, 1.0))
        coords = m.node_coords()
        f = coords[:, 0] * 0.25
        pts = np.array([[4.0, 2.0, 0.5], [8.0, 4.0, 1.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(m.interpolate_at(f, pts), [1.0, 2.0, 0.0], atol=1e-12)


class TestGuards:
    def test_max_level_guard(self):
        from repro.mesh import extract_leaves
        from repro.octree import MAX_LEVEL, OctantArray

        # a leaf set with a leaf at MAX_LEVEL cannot be meshed (midpoints
        # would be fractional); no tree reaches it, the forest caps at 19
        deep = OctantArray.root()
        for _ in range(MAX_LEVEL):
            deep = deep.refine(np.arange(len(deep)) == 0)
        with pytest.raises(ValueError, match="element level <= MAX_LEVEL - 1"):
            extract_leaves(deep)
