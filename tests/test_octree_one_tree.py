"""One tree type: the serial octree is the one-tree forest on ``unit_cube()``.

- ``Mesh.tree`` is a :class:`~repro.forest.Forest` with one tree, the
  unit cube's connectivity, at every point the serial path makes one:
  construction (the driver's and the fleet registry's uniform mesh),
  ``adapt()``, every level of the GMG hierarchy, and
  ``restore_convection``;
- the one point lookup (``Mesh.containing_leaf`` / ``Mesh.point_keys``)
  agrees bit for bit with ``par_interpolate_at`` at P = 1, on points at
  the domain's +max faces and just outside them, and clamps those
  points to the lattice points one cell inside.
"""

import numpy as np

from repro.checkpoint import restore_convection, save_convection
from repro.fleet.service import MeshRegistry
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.mesh.parmesh import extract_parmesh, par_interpolate_at
from repro.octree import ROOT_LEN, gather_tree
from repro.parallel import run_spmd
from repro.rhea import MantleConvection
from repro.solvers import mesh_hierarchy

from .test_forest_recursive import build_ptree
from .test_rhea_convection import small_config

DOMAIN = np.array([8.0, 4.0, 1.0])


def assert_one_tree(mesh):
    tree = mesh.tree
    assert type(tree) is Forest and tree.n_trees == 1
    cube = unit_cube()
    np.testing.assert_array_equal(tree.conn.vertices, cube.vertices)
    np.testing.assert_array_equal(tree.conn.tree_vertices, cube.tree_vertices)
    assert not tree.tree_ids.any() and tree.is_complete()
    assert mesh.leaves is tree.octs


class TestSerialTreeIsTheOneTreeForest:
    def test_construction_adapt_hierarchy_restore(self, tmp_path):
        cfg = small_config(initial_level=2, max_level=4, domain=tuple(DOMAIN))
        sim = MantleConvection(cfg)
        assert_one_tree(sim.mesh)
        assert_one_tree(MeshRegistry().uniform(cfg))

        sim.adapt(target=2 * sim.mesh.n_elements)
        assert_one_tree(sim.mesh)
        assert len(sim.mesh.tree.level_histogram()) > 1

        hier = mesh_hierarchy(sim.mesh)
        assert len(hier.meshes) > 1
        for mesh in hier.meshes:
            assert_one_tree(mesh)

        back = restore_convection(save_convection(sim, str(tmp_path)), config=cfg)
        assert_one_tree(back.mesh)
        assert back.mesh.tree.octs.equals(sim.mesh.tree.octs)


def face_points():
    """Points on the domain's +max faces, edges and corner, and just
    outside them, plus interior ones."""
    rng = np.random.default_rng(3)
    inner = rng.random((40, 3)) * DOMAIN
    pts = [inner]
    for axis in range(3):
        for past in (0.0, 1e-12, 1e-9 * DOMAIN[axis], 0.5):
            p = rng.random((6, 3)) * DOMAIN
            p[:, axis] = DOMAIN[axis] + past
            pts.append(p)
    pts.append(np.array([DOMAIN, DOMAIN * (1 + 1e-13), DOMAIN + 1.0]))
    return np.concatenate(pts)


class TestOnePointLookup:
    def test_agrees_with_par_interpolate_at_on_one_rank(self):
        pts = face_points()

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=4)
            pm = extract_parmesh(pt, DOMAIN)
            mesh = extract_mesh(gather_tree(pt), DOMAIN)
            u_full = np.sin(mesh.node_coords() @ np.array([0.7, -1.3, 2.1]))
            return mesh, pm, u_full, par_interpolate_at(pm, u_full, pts)

        mesh, pm, u_full, par = run_spmd(1, kernel)[0]
        np.testing.assert_array_equal(pm.mesh.node_coords_int, mesh.node_coords_int)
        assert np.array_equal(mesh.interpolate_at(u_full, pts), par)
        eidx = mesh.containing_leaf(pts)
        np.testing.assert_array_equal(pm.mesh.containing_leaf(pts), eidx)

        # a point on or past a +max face lands in the last cell there
        lattice = np.minimum((pts / DOMAIN * ROOT_LEN).astype(np.int64), ROOT_LEN - 1)
        np.testing.assert_array_equal(mesh.point_keys(pts), mesh.point_keys(lattice))
        np.testing.assert_array_equal(mesh.containing_leaf(lattice), eidx)
