"""``DGAdvection.rate`` against the per-instance dense-operator oracle,
the face-class census and the sparsity of the assembled operator, input
validation at the solver boundary, and the ``dg/*`` observability hooks."""

import numpy as np
import pytest

from repro import obs
from repro.forest import Forest, brick_connectivity, cubed_sphere_connectivity, unit_cube
from repro.mangll import DGAdvection, dg_transfer, solid_body_rotation

from .oracles.dg_rate import DGRateOracle
from .test_mangll_dg import const_wind


def _refined(forest, which):
    mask = np.zeros(len(forest), dtype=bool)
    mask[which] = True
    return forest.refine(mask).balance()[0]


def cube_one_octant():
    """Unit cube, one refined octant: same-tree 2:1 faces."""
    return _refined(Forest.uniform(unit_cube(), 1), [0]), const_wind([1.0, 0.5, -0.25]), None


def brick_across_tree_face():
    """Two trees; the refined elements touch the shared tree face."""
    f = _refined(Forest.uniform(brick_connectivity(2, 1, 1), 1), [0, 1, 2, 3])
    return f, const_wind([1.0, 0.3, -0.2]), None


def adapted_sphere():
    """Cubed sphere refined in three caps: rotated cross-tree mortars."""
    conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
    f = _refined(Forest.uniform(conn, 0), [0, 9, 22])
    return f, solid_body_rotation([0.3, -0.2, 1.0]), None


def cube_with_inflow():
    f, wind, _ = cube_one_octant()
    return f, wind, lambda x: 1.0 + np.sin(3 * x[:, 1]) * x[:, 2]


GEOMETRIES = {
    "cube_2to1": cube_one_octant,
    "brick_tree_face": brick_across_tree_face,
    "sphere_adapted": adapted_sphere,
    "cube_inflow": cube_with_inflow,
}


@pytest.fixture(params=sorted(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]()


class TestRateParity:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_rate_equals_oracle(self, geometry, p):
        forest, wind, inflow = geometry
        dg = DGAdvection(forest, p=p, velocity=wind, inflow=inflow)
        oracle = DGRateOracle(dg, wind)
        x = dg.nodes()
        rng = np.random.default_rng(p)
        for u in (
            np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + x[:, 2] ** 2,
            rng.standard_normal(dg.n_dof),
        ):
            ref = oracle(u)
            assert np.abs(dg.rate(u) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_advance_equals_oracle_steps(self):
        """Same RK scheme driven by either rate: the fields stay together."""
        forest, wind, inflow = cube_with_inflow()
        dg = DGAdvection(forest, p=3, velocity=wind, inflow=inflow)
        oracle = DGRateOracle(dg, wind)
        u0 = np.exp(-np.sum((dg.nodes() - 0.4) ** 2, axis=1) / 0.02)
        dt = dg.cfl_dt(0.3)
        u_ref = dg._rk.advance(lambda u, t: oracle(u), u0, 0.0, dt, 10)
        u_new = dg.advance(u0, dt, 10)
        assert np.abs(u_new - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
        assert dg.total_mass(u_new) == pytest.approx(dg.total_mass(u_ref), rel=1e-13)


class TestFaceCensus:
    def test_every_instance_in_exactly_one_class(self, geometry):
        forest, wind, inflow = geometry
        dg = DGAdvection(forest, p=2, velocity=wind, inflow=inflow)
        oracle = DGRateOracle(dg, wind)
        c = dg.face_census()
        assert c["conforming"] + c["fine_mortar"] + c["coarse_mortar"] == oracle.n_interior
        assert c["boundary"] == len(oracle.bdry["mine"])
        assert c["coarse_faces"] > 0
        assert c["fine_mortar"] == c["coarse_mortar"] == 4 * c["coarse_faces"]
        # 6 faces per element, a coarse face counted once per fine neighbor
        assert oracle.n_interior + c["boundary"] == 6 * dg.ne + 3 * c["coarse_faces"]

    def test_known_counts(self):
        # octant 0 refined: 7 + 8 elements; its 3 inner neighbors each see
        # one coarse face, its 3 outer faces became 12 boundary faces
        dg = DGAdvection(cube_one_octant()[0], p=1, velocity=const_wind([1, 0, 0]))
        assert dg.face_census() == {
            "conforming": 15 * 6 - 33 - 3 - 12,
            "fine_mortar": 12,
            "coarse_mortar": 12,
            "boundary": 24 - 3 + 12,
            "coarse_faces": 3,
        }
        # 4 coarse neighbors above the refined layer + 2 across the tree face
        assert DGAdvection(
            brick_across_tree_face()[0], p=1, velocity=const_wind([1, 0, 0])
        ).face_census()["coarse_faces"] == 6

    def test_uniform_forest_is_all_conforming(self):
        conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
        dg = DGAdvection(Forest.uniform(conn, 0), p=3, velocity=solid_body_rotation())
        c = dg.face_census()
        assert (c["fine_mortar"], c["coarse_mortar"], c["coarse_faces"]) == (0, 0, 0)
        assert c["conforming"] == 24 * 4 and c["boundary"] == 24 * 2

    def test_single_element_has_no_interior_class(self):
        dg = DGAdvection(Forest.uniform(unit_cube(), 0), p=1, velocity=const_wind([1, 0, 0]))
        assert dg.face_census() == {
            "conforming": 0, "fine_mortar": 0, "coarse_mortar": 0,
            "boundary": 6, "coarse_faces": 0,
        }
        # u = x vanishes on the inflow face, so only -a.grad(u) = -1 is left
        np.testing.assert_allclose(dg.rate(dg.nodes()[:, 0]), -1.0, atol=1e-13)

    @pytest.mark.parametrize("p", [1, 3])
    def test_only_mortars_keep_operators(self, geometry, p):
        """``L`` stores no identity or permutation block.  Per row: at most
        the ``3p + 1`` volume columns (the face diagonals land on them), one
        neighbor node per conforming face, ``n2`` per fine-side mortar and
        ``2 n2`` per coarse-side mortar, counted only where the upwind weight
        is non-zero (the outflow half is dropped).  A conforming face stored
        as a dense ``n2 x n2`` block would add ``n2 - 1`` entries per row.
        The census bound, which counts the outflow halves too, is the looser
        second check."""
        forest, wind, inflow = geometry
        dg = DGAdvection(forest, p=p, velocity=wind, inflow=inflow)
        fb = dg._finalize_faces(*dg._face_instances(wind))
        n2, c = dg.n2, dg.face_census()
        w_conf, w_fine = fb.w[: c["conforming"]], fb.w[c["conforming"]:]
        lifted = np.abs(fb.lift).sum(axis=2)
        bound = (
            dg.n_dof * (3 * p + 1) + np.count_nonzero(w_conf)
            + n2 * np.count_nonzero(w_fine) + 2 * n2 * np.count_nonzero(lifted)
        )
        assert dg.L.nnz <= bound
        assert dg.L.nnz <= dg.n_dof * (3 * p + 1) + n2 * (
            2 * c["conforming"] + (n2 + 1) * c["fine_mortar"]
            + 2 * n2 * c["coarse_mortar"] + c["boundary"]
        )
        assert dg.L.indices.dtype == dg.L.indptr.dtype == np.int32


class TestBoundaryFlux:
    def test_constant_state_feels_only_the_inflow_boundary(self):
        """u = 1 with zero exterior trace and a divergence-free wind:
        volume and interior terms vanish, M * rate is the inflow flux."""
        forest, wind, _ = cube_one_octant()  # a = (1, 0.5, -0.25)
        dg = DGAdvection(forest, p=3, velocity=wind)
        flux = dg.Mdiag.ravel() * dg.rate(np.ones(dg.n_dof))
        assert flux.sum() == pytest.approx(-(1.0 + 0.5 + 0.25), rel=1e-12)
        x = dg.nodes()
        on_inflow = (x[:, 0] < 1e-12) | (x[:, 1] < 1e-12) | (x[:, 2] > 1 - 1e-12)
        assert np.abs(flux[~on_inflow]).max() < 1e-12
        assert np.all(flux[on_inflow] < 0)

    def test_matching_inflow_cancels_it(self):
        forest, wind, _ = cube_one_octant()
        dg = DGAdvection(forest, p=3, velocity=wind, inflow=lambda x: np.ones(len(x)))
        assert np.abs(dg.rate(np.ones(dg.n_dof))).max() < 1e-11


class TestFieldValidation:
    @pytest.fixture(scope="class")
    def dg(self):
        return DGAdvection(Forest.uniform(unit_cube(), 1), p=2, velocity=const_wind([1, 0, 0]))

    @pytest.mark.parametrize("call", [
        lambda dg, u: dg.rate(u),
        lambda dg, u: dg.advance(u, 1e-3, 1),
        lambda dg, u: dg.total_mass(u),
    ], ids=["rate", "advance", "total_mass"])
    def test_wrong_shape_rejected(self, dg, call):
        good = np.zeros(dg.n_dof)
        call(dg, good)
        for bad in (good.reshape(dg.ne, dg.n3), good[:-1], good[:, None]):
            with pytest.raises(ValueError, match="nodal field of shape"):
                call(dg, bad)

    def test_no_variant_argument(self, dg):
        with pytest.raises(TypeError):
            DGAdvection(dg.forest, p=2, velocity=const_wind([1, 0, 0]), variant="matrix")


class TestObservability:
    def test_adapt_advance_cycle_is_phased_and_counted(self):
        forest, wind, _ = cube_one_octant()
        base = Forest.uniform(unit_cube(), 1)
        dg0 = DGAdvection(base, p=2, velocity=wind)
        u0 = dg0.project(lambda x: x[:, 0])
        timer = obs.PhaseTimer()
        with obs.attached(timer):
            dg = DGAdvection(forest, p=2, velocity=wind)
            u = dg_transfer(dg0, u0, dg)
            dg.advance(u, dg.cfl_dt(0.3), 3)
        rep = obs.generate_report([timer.results()])
        phases = rep["phases"]
        for path in ("dg/setup", "dg/setup/geometry", "dg/setup/faces",
                     "dg/setup/rate_tables", "dg/transfer", "dg/advance"):
            assert phases[path]["count"] == 1, path
        assert phases["dg/advance"]["counters"] == {"dg_rate_calls": 15}
        assert phases["dg/setup"]["counters"] == {
            f"dg_faces_{k}": v for k, v in dg.face_census().items()
        }
        assert phases["dg/setup/rate_tables"]["counters"] == {"dg_operator_nnz": dg.L.nnz}
        # no phase is opened per rate call
        assert not any(p.startswith("dg/advance/") for p in phases)
        assert "dg/setup" in obs.markdown_report(rep)
