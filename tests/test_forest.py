"""Tests for forest-of-octrees connectivity, transforms, and balance."""

import hashlib

import numpy as np
import pytest

from repro.forest import (
    Forest,
    brick_connectivity,
    cubed_sphere_connectivity,
    forest_key,
    unit_cube,
)
from repro.octree import ROOT_LEN, morton_encode

from .oracles.dg_faces import neighbor_leaf


class TestConnectivityBasics:
    def test_unit_cube_all_boundary(self):
        conn = unit_cube()
        assert conn.n_trees == 1
        assert len(conn.boundary_faces()) == 6

    def test_face_arrays_mirror_face_connections(self):
        """The (n_trees, 6, ...) integer arrays the batched algorithms
        read are the same gluings as the per-face objects."""
        for conn in (unit_cube(), brick_connectivity(2, 2, 1), cubed_sphere_connectivity()):
            for t in range(conn.n_trees):
                for f in range(6):
                    fc = conn.face_connections[t][f]
                    if fc is None:
                        assert conn.face_tree[t, f] == conn.face_face[t, f] == -1
                        continue
                    assert conn.face_tree[t, f] == fc.neighbor_tree
                    assert conn.face_face[t, f] == fc.neighbor_face
                    assert conn.face_R[t, f].tolist() == [list(r) for r in fc.R]
                    assert conn.face_o[t, f].tolist() == list(fc.o)

    def test_brick_face_counts(self):
        conn = brick_connectivity(2, 1, 1)
        assert conn.n_trees == 2
        # one shared face: each tree has 5 boundary faces
        assert len(conn.boundary_faces()) == 10
        fc = conn.face_connections[0][1]  # +x face of tree 0
        assert fc is not None
        assert fc.neighbor_tree == 1
        assert fc.neighbor_face == 0

    def test_brick_transform_is_translation(self):
        conn = brick_connectivity(2, 1, 1)
        fc = conn.face_connections[0][1]
        pts = np.array([[ROOT_LEN + 5, 7, 9]])  # beyond +x face of tree 0
        q = fc.transform(pts)
        np.testing.assert_array_equal(q, [[5, 7, 9]])

    def test_brick_3d_interior_tree(self):
        conn = brick_connectivity(3, 3, 3)
        # center tree (index 13) has all 6 faces connected
        assert all(conn.face_connections[13][f] is not None for f in range(6))

    def test_transforms_are_mutually_inverse(self):
        conn = brick_connectivity(2, 2, 2)
        for t in range(conn.n_trees):
            for f in range(6):
                fc = conn.face_connections[t][f]
                if fc is None:
                    continue
                back = conn.face_connections[fc.neighbor_tree][fc.neighbor_face]
                assert back.neighbor_tree == t
                R = np.array(fc.R)
                Rb = np.array(back.R)
                np.testing.assert_array_equal(Rb @ R, np.eye(3, dtype=np.int64))

    def test_tree_map_corners(self):
        conn = brick_connectivity(2, 1, 1)
        ref = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        np.testing.assert_allclose(conn.tree_map(1, ref), [[1, 0, 0], [2, 1, 1]])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            brick_connectivity(0, 1, 1)


class TestCubedSphere:
    def test_24_trees_no_boundary_faces_laterally(self):
        conn = cubed_sphere_connectivity()
        assert conn.n_trees == 24
        # boundary faces are exactly the inner+outer shell faces: 48
        assert len(conn.boundary_faces()) == 48

    def test_radii(self):
        conn = cubed_sphere_connectivity(r_inner=0.5, r_outer=1.0)
        r = np.linalg.norm(conn.vertices, axis=1)
        assert set(np.round(r, 9)) == {0.5, 1.0}

    def test_positive_jacobians(self):
        conn = cubed_sphere_connectivity()
        for t in range(24):
            v = conn.vertices[conn.tree_vertices[t]]
            J = np.stack([v[1] - v[0], v[2] - v[0], v[4] - v[0]], axis=1)
            assert np.linalg.det(J) > 0

    def test_transforms_consistent(self):
        """Round-tripping any point across a face connection and back is
        the identity."""
        conn = cubed_sphere_connectivity()
        rng = np.random.default_rng(0)
        for t in range(24):
            for f in range(6):
                fc = conn.face_connections[t][f]
                if fc is None:
                    continue
                back = conn.face_connections[fc.neighbor_tree][fc.neighbor_face]
                pts = rng.integers(0, ROOT_LEN, size=(5, 3))
                np.testing.assert_array_equal(back.transform(fc.transform(pts)), pts)

    def test_geometric_face_match(self):
        """Physical locations agree across each face gluing: a point just
        outside tree A maps to the same physical point inside tree B."""
        conn = cubed_sphere_connectivity()
        checked = 0
        for t in range(24):
            for f in range(6):
                fc = conn.face_connections[t][f]
                if fc is None:
                    continue
                # a point on A's face f
                axis, side = f // 2, f % 2
                ref = np.array([[0.3, 0.7, 0.25]])
                ref[0, axis] = float(side)
                pA = (ref * ROOT_LEN).astype(np.int64)
                pB = fc.transform(pA)
                xA = conn.tree_map(t, pA / ROOT_LEN)
                xB = conn.tree_map(fc.neighbor_tree, pB / ROOT_LEN)
                np.testing.assert_allclose(xA, xB, atol=1e-9)
                checked += 1
        assert checked == 24 * 4  # every lateral face is glued


class TestPerPointTreeIds:
    """``tree_map`` and ``tree_map_jacobian`` take an (n,) array of
    per-point tree ids as well as one id: the array form is bitwise the
    per-tree calls, and both are pinned to the digests of the per-tree
    evaluation the array form replaced."""

    CONNECTIVITIES = {
        "curved_sphere": cubed_sphere_connectivity,
        "straight_sphere": lambda: cubed_sphere_connectivity(curved=False),
        "brick": lambda: brick_connectivity(2, 1, 1),
    }
    PINNED_DIGEST = {
        ("curved_sphere", "tree_map"): "66e16e48800ff489b4df6596c3e1caa4",
        ("curved_sphere", "tree_map_jacobian"): "01da0937e24204e6c901ed449083c80c",
        ("straight_sphere", "tree_map"): "5c933021aa852444df974bb4a2a1c9b3",
        ("straight_sphere", "tree_map_jacobian"): "ebe9f54ac755731aa2ce212810108a4f",
        ("brick", "tree_map"): "facd95e7781f4871377f47a83a10f1d1",
        ("brick", "tree_map_jacobian"): "7ab6abf01ecf69da2e69c9ae18bff37e",
    }

    @staticmethod
    def points(conn):
        """Per-point tree ids and reference points, faces and corners
        of [0, 1]^3 included."""
        rng = np.random.default_rng(0)
        tids = rng.integers(0, conn.n_trees, 300)
        ref = rng.random((300, 3))
        ref[::5, 0] = 0.0
        ref[::7, 1] = 1.0
        ref[::9] = rng.integers(0, 2, (34, 3))
        return tids, ref

    @pytest.mark.parametrize("method", ["tree_map", "tree_map_jacobian"])
    @pytest.mark.parametrize("name", list(CONNECTIVITIES))
    def test_array_of_ids_equals_per_tree_calls(self, name, method):
        conn = self.CONNECTIVITIES[name]()
        tids, ref = self.points(conn)
        got = getattr(conn, method)(tids, ref)
        want = np.empty_like(got)
        for t in range(conn.n_trees):
            sel = tids == t
            want[sel] = getattr(conn, method)(t, ref[sel])
        assert got.shape == (len(ref), 3) + (3,) * (method == "tree_map_jacobian")
        assert np.array_equal(got, want)
        digest = hashlib.blake2b(want.tobytes(), digest_size=16).hexdigest()
        assert digest == self.PINNED_DIGEST[name, method]

    def test_scalar_tree_id(self):
        """One tree id, a Python or a numpy int, maps every point."""
        conn = cubed_sphere_connectivity()
        _, ref = self.points(conn)
        for t in (5, np.int64(5)):
            x = conn.tree_map(t, ref)
            J = conn.tree_map_jacobian(t, ref)
            assert np.array_equal(x, conn.tree_map(np.full(len(ref), 5), ref))
            assert np.array_equal(J, conn.tree_map_jacobian(np.full(len(ref), 5), ref))


class TestForest:
    def test_uniform_counts(self):
        forest = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        assert len(forest) == 16
        assert forest.is_complete()
        assert forest.is_balanced()

    def test_refine_flat_mask(self):
        forest = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        mask = np.zeros(16, dtype=bool)
        mask[0] = mask[15] = True
        f2 = forest.refine(mask)
        assert len(f2) == 16 - 2 + 16
        assert f2.is_complete()

    def test_coarsen(self):
        forest = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        f2, nfam = forest.coarsen(np.ones(16, dtype=bool))
        assert nfam == 2
        assert len(f2) == 2

    def test_cross_tree_balance(self):
        """Deep refinement against a tree face forces refinement in the
        face-neighbor tree."""
        conn = brick_connectivity(2, 1, 1)
        forest = Forest.uniform(conn, 1)
        # refine tree 0's leaf at its +x face repeatedly
        # the leaf containing a point near the +x face center of tree 0
        mid = np.array([ROOT_LEN // 2])
        target = forest_key([0], morton_encode(np.array([ROOT_LEN - 1]), mid, mid))
        for _ in range(3):
            mask = np.zeros(len(forest), dtype=bool)
            mask[np.searchsorted(forest.fkeys(), target, side="right") - 1] = True
            forest = forest.refine(mask)
        assert not forest.is_balanced()
        balanced, added = forest.balance()
        assert added > 0
        assert balanced.is_balanced()
        # tree 1 must have been refined beyond level 1
        assert balanced.octs.level[balanced.tree_ids == 1].max() >= 2

    def test_balance_idempotent(self):
        conn = brick_connectivity(2, 2, 1)
        forest = Forest.uniform(conn, 1)
        rng = np.random.default_rng(1)
        for _ in range(2):
            forest = forest.refine(rng.random(len(forest)) < 0.3)
        balanced, _ = forest.balance()
        again, added = balanced.balance()
        assert added == 0

    def test_sphere_balance(self):
        conn = cubed_sphere_connectivity()
        forest = Forest.uniform(conn, 1)
        rng = np.random.default_rng(2)
        forest = forest.refine(rng.random(len(forest)) < 0.3)
        forest = forest.refine(rng.random(len(forest)) < 0.3)
        balanced, _ = forest.balance()
        assert balanced.is_balanced()
        assert balanced.is_complete()

    def test_neighbor_leaf_within_and_across(self):
        """The containment probe under the DG face oracle."""
        conn = brick_connectivity(2, 1, 1)
        forest = Forest.uniform(conn, 1)
        # inside point
        t, l = neighbor_leaf(forest, 0, np.array([[5, 5, 5]]))
        assert t[0] == 0 and l[0] >= 0
        # beyond +x face -> tree 1
        t, l = neighbor_leaf(forest, 0, np.array([[ROOT_LEN + 5, 5, 5]]))
        assert t[0] == 1 and l[0] >= 0
        # beyond -x face -> forest boundary
        t, l = neighbor_leaf(forest, 0, np.array([[-5, 5, 5]]))
        assert t[0] == -1

    def test_partition_assignments(self):
        forest = Forest.uniform(brick_connectivity(2, 1, 1), 2)
        ranks = forest.partition_assignments(4)
        assert len(ranks) == len(forest)
        counts = np.bincount(ranks, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert np.all(np.diff(ranks) >= 0)  # contiguous along the curve

    def test_weighted_partition(self):
        forest = Forest.uniform(unit_cube(), 2)
        w = np.ones(len(forest))
        w[:8] = 100.0
        ranks = forest.partition_assignments(4, weights=w)
        assert np.bincount(ranks, minlength=4)[0] < len(forest) // 4

    def test_level_histogram_and_centers(self):
        forest = Forest.uniform(cubed_sphere_connectivity(), 1)
        assert forest.level_histogram() == {1: 24 * 8}
        c = forest.leaf_centers()
        assert c.shape == (len(forest), 3)
        r = np.linalg.norm(c, axis=1)
        assert r.min() > 0.4 and r.max() < 1.1
