"""Tests for the nodal DG advection solver on forests."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.forest import (
    Connectivity,
    Forest,
    brick_connectivity,
    cubed_sphere_connectivity,
    match_faces,
    unit_cube,
)
from repro.mangll import DGAdvection, solid_body_rotation
from repro.octree import OctantArray

from .oracles.dg_faces import LoopFaceBuilder


def const_wind(a):
    a = np.asarray(a, dtype=np.float64)
    return lambda x: np.broadcast_to(a, x.shape).copy()


def cube_forest(level=1, refine_first=False):
    f = Forest.uniform(unit_cube(), level)
    if refine_first:
        mask = np.zeros(len(f), dtype=bool)
        mask[0] = True
        f, _ = f.refine(mask).balance()
    return f


class TestSetup:
    def test_node_count_and_mass(self):
        f = cube_forest(1)
        dg = DGAdvection(f, p=2, velocity=const_wind([1, 0, 0]))
        assert dg.n_dof == 8 * 27
        # total volume = sum of mass diag = 1 for the unit cube
        np.testing.assert_allclose(dg.Mdiag.sum(), 1.0, rtol=1e-12)

    def test_nodes_inside_domain(self):
        f = cube_forest(1, refine_first=True)
        dg = DGAdvection(f, p=3, velocity=const_wind([1, 0, 0]))
        x = dg.nodes()
        assert x.min() >= -1e-12 and x.max() <= 1 + 1e-12

    def test_sphere_volume_curved(self):
        """With the radial-projection geometry the LGL quadrature of the
        curved Jacobian reproduces the exact shell volume closely."""
        conn = cubed_sphere_connectivity(r_inner=0.5, r_outer=1.0)
        f = Forest.uniform(conn, 0)
        dg = DGAdvection(f, p=4, velocity=solid_body_rotation())
        vol_exact = 4.0 / 3.0 * np.pi * (1.0 - 0.125)
        assert abs(dg.Mdiag.sum() - vol_exact) / vol_exact < 0.02

    def test_sphere_volume_straight_sided_underestimates(self):
        conn = cubed_sphere_connectivity(r_inner=0.5, r_outer=1.0, curved=False)
        f = Forest.uniform(conn, 0)
        dg = DGAdvection(f, p=4, velocity=solid_body_rotation())
        vol_exact = 4.0 / 3.0 * np.pi * (1.0 - 0.125)
        assert dg.Mdiag.sum() < vol_exact  # chordal hexes lose volume


class TestRate:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_constant_preserved_conforming(self, p):
        f = cube_forest(1)
        dg = DGAdvection(
            f, p=p, velocity=const_wind([1, 0.5, -0.25]),
            inflow=lambda x: np.ones(len(x)),
        )
        r = dg.rate(np.ones(dg.n_dof))
        np.testing.assert_allclose(r, 0.0, atol=1e-10)

    def test_constant_preserved_nonconforming(self):
        """The mortar face integration must not break constants."""
        f = cube_forest(1, refine_first=True)
        dg = DGAdvection(
            f, p=2, velocity=const_wind([1, 0, 0]),
            inflow=lambda x: np.ones(len(x)),
        )
        r = dg.rate(np.ones(dg.n_dof))
        np.testing.assert_allclose(r, 0.0, atol=1e-10)

    def test_linear_field_exact_volume_term(self):
        """u = x with matching inflow: du/dt = -a_x exactly."""
        f = cube_forest(1)
        dg = DGAdvection(
            f, p=2, velocity=const_wind([2, 0, 0]),
            inflow=lambda x: x[:, 0],
        )
        u = dg.nodes()[:, 0]
        r = dg.rate(u)
        np.testing.assert_allclose(r, -2.0, atol=1e-9)


class TestAdvectionAccuracy:
    def _advect_error(self, p, level, t_final=0.2):
        """Advect a Gaussian through the cube; compare with the exact
        translate."""
        f = cube_forest(level)
        a = np.array([1.0, 0.0, 0.0])
        dg = DGAdvection(f, p=p, velocity=const_wind(a))

        def exact(x, t):
            c = np.array([0.35 + t, 0.5, 0.5])
            return np.exp(-np.sum((x - c) ** 2, axis=1) / 0.01)

        u = exact(dg.nodes(), 0.0)
        dt = dg.cfl_dt(0.25)
        n = max(int(t_final / dt), 1)
        u2 = dg.advance(u, t_final / n, n)
        err = np.sqrt(((u2 - exact(dg.nodes(), t_final)) ** 2 * dg.Mdiag.ravel()).sum())
        return err

    def test_p_convergence(self):
        """Error drops rapidly with order (spectral accuracy)."""
        e2 = self._advect_error(2, level=1)
        e4 = self._advect_error(4, level=1)
        e6 = self._advect_error(6, level=1)
        assert e4 < e2
        assert e6 < 0.5 * e4

    def test_h_convergence(self):
        e_coarse = self._advect_error(2, level=1)
        e_fine = self._advect_error(2, level=2)
        assert e_fine < 0.5 * e_coarse

    def test_stability_long_run(self):
        f = cube_forest(1, refine_first=True)
        dg = DGAdvection(f, p=3, velocity=const_wind([1, 0.3, 0.2]))
        c = dg.nodes()
        u = np.exp(-np.sum((c - 0.4) ** 2, axis=1) / 0.02)
        dt = dg.cfl_dt(0.3)
        u2 = dg.advance(u, dt, 100)
        assert np.all(np.isfinite(u2))
        assert np.abs(u2).max() < 2.0


class TestNonconformingCoupling:
    def test_adapted_matches_uniform(self):
        """A front advected on a locally refined mesh stays close to the
        uniform-mesh solution."""
        wind = const_wind([1.0, 0.0, 0.0])

        def ic(x):
            return np.tanh((0.4 - x[:, 0]) / 0.15)

        dg_u = DGAdvection(cube_forest(1), p=3, velocity=wind,
                           inflow=lambda x: np.ones(len(x)))
        dg_a = DGAdvection(cube_forest(1, refine_first=True), p=3, velocity=wind,
                           inflow=lambda x: np.ones(len(x)))
        t_final = 0.1
        sols = []
        for dg in (dg_u, dg_a):
            u = ic(dg.nodes())
            dt = dg.cfl_dt(0.25)
            n = max(int(t_final / dt), 1)
            u2 = dg.advance(u, t_final / n, n)
            # sample both on a common probe line
            probe = np.stack(
                [np.linspace(0.05, 0.95, 13), np.full(13, 0.52), np.full(13, 0.52)],
                axis=1,
            )
            from scipy.interpolate import griddata

            sols.append(griddata(dg.nodes(), u2, probe, method="nearest"))
        # nearest-node sampling near the moving front introduces O(h *
        # front slope) probe error on top of the discretization difference
        assert np.abs(sols[0] - sols[1]).max() < 0.35


class TestSphereAdvection:
    def test_solid_rotation_conserves_mass_and_bounds(self):
        conn = cubed_sphere_connectivity(r_inner=0.6, r_outer=1.0)
        forest = Forest.uniform(conn, 0)
        dg = DGAdvection(forest, p=3, velocity=solid_body_rotation([0, 0, 1]))
        x = dg.nodes()
        u = np.exp(-(((x[:, 0] - 0.9) ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2) / 0.05))
        m0 = dg.total_mass(u)
        dt = dg.cfl_dt(0.3)
        u2 = dg.advance(u, dt, 30)
        m1 = dg.total_mass(u2)
        # no flux through the shell boundaries (a . n = 0): mass drifts
        # only through the interpolation mortars
        assert abs(m1 - m0) < 0.05 * abs(m0) + 1e-12
        assert np.abs(u2).max() < 1.5

    def test_blob_moves_with_rotation(self):
        conn = cubed_sphere_connectivity(r_inner=0.6, r_outer=1.0)
        forest = Forest.uniform(conn, 0)
        dg = DGAdvection(forest, p=3, velocity=solid_body_rotation([0, 0, 1]))
        x = dg.nodes()
        u = np.exp(-(((x[:, 0] - 0.9) ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2) / 0.05))
        dt = dg.cfl_dt(0.3)
        t_final = 0.3  # rotate by 0.3 rad
        n = max(int(t_final / dt), 1)
        u2 = dg.advance(u, t_final / n, n)
        # center of mass should rotate toward +y
        com_y0 = (dg.Mdiag.ravel() * u * x[:, 1]).sum() / dg.total_mass(u)
        com_y1 = (dg.Mdiag.ravel() * u2 * x[:, 1]).sum() / dg.total_mass(u2)
        assert com_y1 > com_y0 + 0.05


def assert_equals_loop_builder(forest, dg, wind, u):
    """Every face-instance array, every face table, the assembled ``L``
    and ``g`` and ``rate(u)`` of ``dg`` are bitwise what the per-face probe
    loop of ``tests/oracles/dg_faces.py`` gives."""
    ref = LoopFaceBuilder(forest, dg, wind).face_instances()
    got = dg._face_instances(wind)
    for g, want in zip(got, ref):
        assert g.keys() == want.keys()
        for k in want:
            assert g[k].dtype == want[k].dtype, k
            assert np.array_equal(g[k], want[k]), k
    tables, ref_tables = dg._finalize_faces(*got), dg._finalize_faces(*ref)
    for fld in dataclasses.fields(ref_tables):
        assert np.array_equal(
            getattr(tables, fld.name), getattr(ref_tables, fld.name)
        ), fld.name
    dg_loop = copy.copy(dg)
    dg_loop.L, dg_loop.g = dg._assemble(ref_tables)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(dg_loop.L, name), getattr(dg.L, name)), name
    assert np.array_equal(dg_loop.g, dg.g)
    assert np.array_equal(dg_loop.rate(u), dg.rate(u))


def orientation_classes(conn, tids, fcls, levels):
    """``{(face, neighbor face, R): [cross-tree sides, of which I am the
    fine side of a mortar, of which I am the coarse side]}``."""
    e, f = np.nonzero(fcls.valid & ~fcls.same)
    fine = fcls.idrive[e, f] & (levels[fcls.g_nb[e, f]] < levels[e])
    out = {}
    for t, ff, fi, co in zip(tids[e], f, fine, fcls.coarse[e, f]):
        key = (int(ff), int(conn.face_face[t, ff]), conn.face_R[t, ff].tobytes())
        out[key] = out.get(key, np.zeros(3, dtype=int)) + [1, fi, co]
    return out


class TestBatchedFaceConstruction:
    """The face builder (``match_faces`` joins + array batches, in-tree
    and across trees) against the per-face probe loop: every array
    bitwise, for every order P."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_p_invariance_adapted_cube(self, p):
        f = cube_forest(1, refine_first=True)
        wind = const_wind([0.7, -0.4, 0.2])
        dg = DGAdvection(f, p=p, velocity=wind)
        x = dg.nodes()
        u = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + x[:, 2] ** 2
        assert_equals_loop_builder(f, dg, wind, u)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_p_invariance_cubed_sphere(self, p):
        """Conforming faces across translated and rotated gluings."""
        conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
        forest = Forest.uniform(conn, 1)
        wind = solid_body_rotation()
        dg = DGAdvection(forest, p=p, velocity=wind)
        x = dg.nodes()
        u = np.exp(-8.0 * ((x[:, 0] - 0.7) ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2))
        assert_equals_loop_builder(forest, dg, wind, u)

    def test_p_invariance_nonconforming_brick(self, p=2):
        f = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        mask = np.zeros(len(f), dtype=bool)
        mask[:4] = True
        f, _ = f.refine(mask).balance()
        wind = const_wind([1.0, 0.3, -0.2])
        dg = DGAdvection(f, p=p, velocity=wind)
        u = dg.project(lambda x: x[:, 0] ** 2 - x[:, 1] * x[:, 2])
        assert_equals_loop_builder(f, dg, wind, u)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mortars_on_every_orientation_class(self, p):
        """Refinement straddling the gluings of the cubed sphere: each of
        the 8 classes (face, neighbor face, R) of its 96 connected tree
        faces, the 4 rotated ones included, carries mortars seen from the
        fine and from the coarse side."""
        conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
        rng = np.random.default_rng(0)
        f = Forest.uniform(conn, 0)
        f = f.refine(rng.random(len(f)) < 0.5)
        f, _ = f.refine(rng.random(len(f)) < 0.15).balance()
        wind = solid_body_rotation([0.3, -0.2, 1.0])
        dg = DGAdvection(f, p=p, velocity=wind)
        classes = orientation_classes(
            conn, dg.tree_ids, match_faces(dg.tree_ids, dg.octs, conn),
            dg.octs.level.astype(int),
        )
        eye = np.eye(3, dtype=np.int64).tobytes()
        assert len(classes) == 8
        assert sum(R != eye for _, _, R in classes) == 4
        assert all(c.min() > 0 for c in classes.values())
        u = np.random.default_rng(p).standard_normal(dg.n_dof)
        assert_equals_loop_builder(f, dg, wind, u)

    def test_no_batch_faces_argument(self):
        with pytest.raises(TypeError):
            DGAdvection(cube_forest(1), 1, const_wind([1, 0, 0]), batch_faces=True)


class TestTreeMapEvaluations:
    """Boundary, conforming and fine-side face nodes are volume nodes, so
    the constructor reads their geometry off the volume arrays: it
    evaluates the tree Jacobian once for all volume nodes and otherwise
    only at the coarse-mortar quadrature points (the fine neighbors'
    nodes, n2 per instance)."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_jacobian_points(self, p, monkeypatch):
        # the adapted sphere of test_mortars_on_every_orientation_class
        conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
        rng = np.random.default_rng(0)
        f = Forest.uniform(conn, 0)
        f = f.refine(rng.random(len(f)) < 0.5)
        f, _ = f.refine(rng.random(len(f)) < 0.15).balance()
        points = []
        jacobian = Connectivity.tree_map_jacobian

        def counted(self, tree, ref):
            points.append(len(ref))
            return jacobian(self, tree, ref)

        monkeypatch.setattr(Connectivity, "tree_map_jacobian", counted)
        dg = DGAdvection(f, p=p, velocity=solid_body_rotation([0.3, -0.2, 1.0]))
        coarse = dg.face_census()["coarse_mortar"]
        assert coarse > 0
        assert points[0] == dg.ne * dg.n3
        assert sum(points) == dg.ne * dg.n3 + dg.n2 * coarse


class TestUnbalancedForestRejected:
    """A forest that breaks 2:1 is one ``ValueError`` from ``match_faces``
    naming the first offending face, in a tree or across a tree face."""

    def test_jump_across_tree_face(self):
        conn = brick_connectivity(2, 1, 1)
        octs = OctantArray.concat([OctantArray.uniform(2), OctantArray.uniform(0)])
        f = Forest(conn, np.repeat([0, 1], [64, 1]), octs)
        # tree 1 is one element, 4x the size of its 16 neighbors in tree 0;
        # the first of those in element order is the first offender
        with pytest.raises(ValueError, match=r"face 1 of element 9 \(tree 0, level 2\)"):
            DGAdvection(f, p=1, velocity=const_wind([1, 0, 0]))

    def test_jump_inside_a_tree(self):
        f = Forest.uniform(unit_cube(), 1)
        for n in (1, 8):  # octant 0 to level 3, its neighbors stay at 1
            mask = np.zeros(len(f), dtype=bool)
            mask[:n] = True
            f = f.refine(mask)
        assert not f.is_balanced()
        with pytest.raises(ValueError, match=r"face \d of element \d+ \(tree 0, level 3\)"):
            DGAdvection(f, p=1, velocity=const_wind([1, 0, 0]))
