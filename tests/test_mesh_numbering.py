"""The one numbering pass of EXTRACTMESH against the extractor it
replaced (``tests/oracles/mesh_extract.py``), array for array.

- serial: ``extract_mesh`` on random corner-balanced trees, on
  face-balanced ones (hanging parents: the transitive closure) and on a
  tree with a leaf at level 19, the deepest a forest allows (the widest
  corner-key packing);
- distributed: every rank's ``extract_parmesh`` on the unit cube at
  P = 1, 2 and 3 (the owned + ghost union, node ownership, active dofs,
  global numbering and both exchange plans), on random trees and on the
  level-19 tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import FOREST_MAX_LEVEL, Forest, unit_cube
from repro.mesh import extract_mesh
from repro.mesh.parmesh import extract_parmesh
from repro.octree import ROOT_LEN
from repro.octree.partree import balance_tree, new_tree, partition_tree, refine_tree
from repro.parallel import run_spmd

from .oracles import mesh_extract as oracle
from .test_forest_recursive import build_ptree
from .test_mesh_extract import refined_tree

seeds = st.integers(0, 2**32 - 1)

# a point off every coarse grid line, so the deep chain of leaves is
# surrounded by balance-added leaves on all sides
POINT = (ROOT_LEN // 2 - 12, ROOT_LEN // 3, ROOT_LEN // 5 + 4)


def contains(octs, point=POINT):
    h = octs.lengths()
    return np.all(
        [(lo <= p) & (p < lo + h) for lo, p in zip((octs.x, octs.y, octs.z), point)], axis=0
    )


def deep_tree() -> Forest:
    """Serial corner-balanced tree with one leaf at FOREST_MAX_LEVEL."""
    tree = Forest.uniform(unit_cube(), 1)
    while tree.octs.level.max() < FOREST_MAX_LEVEL:
        tree = tree.refine(contains(tree.octs))
    return tree.balance("corner")[0]


def deep_ptree(comm):
    pt = new_tree(comm, 1)
    while comm.allreduce(int(pt.octs.level.max(initial=0))) < FOREST_MAX_LEVEL:
        pt = refine_tree(pt, contains(pt.octs))
    pt, _, _ = balance_tree(pt, "corner")
    return partition_tree(pt)[0]


def assert_mesh_equal(got, want):
    assert got.leaves.equals(want.leaves)
    for name in ("node_coords_int", "element_nodes", "hanging", "indep_nodes", "dof_of_node"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.Z.shape == want.Z.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got.Z, name), getattr(want.Z, name), err_msg=name)


def check_serial(tree) -> int:
    got = extract_mesh(tree)
    assert_mesh_equal(got, oracle.extract_submesh(tree.octs))
    return int(got.hanging.sum())


def check_parmesh(pt) -> int:
    """This rank's ParMesh == the oracle's; returns its hanging count."""
    want = oracle.extract_parmesh(pt)
    got = extract_parmesh(pt)
    assert_mesh_equal(got.mesh, want["mesh"])
    for name in ("owned_elements", "node_owner", "active", "global_dof"):
        np.testing.assert_array_equal(getattr(got, name), want[name], err_msg=name)
    assert got.n_global == want["n_global"]
    for name in ("send_plan", "serve_plan"):
        assert len(getattr(got, name)) == pt.comm.size
        for g, w in zip(getattr(got, name), want[name]):
            np.testing.assert_array_equal(g, w, err_msg=name)
    return int(got.mesh.hanging.sum())


class TestSerial:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_random_trees(self, seed):
        check_serial(refined_tree(seed=seed, rounds=3, frac=0.2))

    def test_uniform_tree(self):
        assert check_serial(Forest.uniform(unit_cube(), 2)) == 0

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_hanging_parents_of_face_balanced_trees(self, seed):
        """Face balance lets a hanging node's parent hang too, so ``Z``
        comes out of the transitive closure (none of the corner-balanced
        trees here has such a chain)."""
        rng = np.random.default_rng(seed)
        tree = Forest.uniform(unit_cube(), 1)
        for _ in range(3):
            tree = tree.refine(rng.random(len(tree)) < 0.25)
        check_serial(tree.balance("face")[0])

    def test_leaf_at_the_deepest_forest_level(self):
        tree = deep_tree()
        assert tree.octs.level.max() == FOREST_MAX_LEVEL
        assert check_serial(tree) > 0
        # on the finest leaf's grid the corner keys and indices would need
        # more than 63 bits; the ranks of the grid lines in use fit
        mesh = extract_mesh(tree)
        assert (ROOT_LEN >> 2) ** 3 * 8 * mesh.n_elements > 2**63
        assert mesh.node_coords_int.max() == ROOT_LEN

    def test_finest_level_per_node(self):
        from repro.mesh.extract import _sort_corners

        tree = refined_tree(seed=3, rounds=3, frac=0.2)
        _, _, finest = _sort_corners(tree.octs)
        np.testing.assert_array_equal(finest, oracle.finest_level(extract_mesh(tree)))


class TestDistributed:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_random_trees(self, p, seed):
        run_spmd(p, lambda comm: check_parmesh(build_ptree(comm, 2, refine_seed=seed)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_uniform_tree(self, p):
        assert run_spmd(p, lambda comm: check_parmesh(new_tree(comm, 2))) == [0] * p

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_leaf_at_the_deepest_forest_level(self, p):
        assert sum(run_spmd(p, lambda comm: check_parmesh(deep_ptree(comm)))) > 0
