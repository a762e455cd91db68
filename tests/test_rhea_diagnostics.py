"""Tests for geodynamic diagnostics (depth profiles, mobility, plateness)."""

import numpy as np
import pytest

from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.rhea import depth_profile, plateness, surface_mobility
from repro.rhea.diagnostics import depth_profiles_table


def mesh(level=2, adapted=False):
    t = Forest.uniform(unit_cube(), level)
    if adapted:
        rng = np.random.default_rng(0)
        t = t.refine(rng.random(len(t)) < 0.3).balance("corner")[0]
    return extract_mesh(t)


class TestDepthProfile:
    def test_linear_in_z(self):
        m = mesh(3)
        vals = m.element_centers()[:, 2]
        z, avg = depth_profile(m, vals, n_bins=8)
        np.testing.assert_allclose(avg, z, atol=1e-12)

    def test_adapted_mesh_volume_weighting(self):
        m = mesh(2, adapted=True)
        z, avg = depth_profile(m, np.ones(m.n_elements), n_bins=4)
        np.testing.assert_allclose(avg[~np.isnan(avg)], 1.0)

    def test_validation(self):
        m = mesh(1)
        with pytest.raises(ValueError):
            depth_profile(m, np.zeros(3))


class TestSurfaceMobility:
    def test_uniform_horizontal_flow_mobility_one(self):
        m = mesh(2)
        u = np.tile([1.0, 0.0, 0.0], (m.n_nodes, 1))
        assert surface_mobility(m, u) == pytest.approx(1.0)

    def test_stagnant_lid_low_mobility(self):
        """Flow confined to depth: surface speed ~ 0."""
        m = mesh(3)
        c = m.node_coords()
        u = np.zeros((m.n_nodes, 3))
        u[:, 0] = np.where(c[:, 2] < 0.5, 1.0, 0.0)
        assert surface_mobility(m, u) < 0.2

    def test_zero_flow_nan(self):
        m = mesh(1)
        assert np.isnan(surface_mobility(m, np.zeros((m.n_nodes, 3))))


class TestPlateness:
    def test_rigid_translation_low_plateness_signal(self):
        """Uniform surface motion has zero strain: plateness undefined."""
        m = mesh(2)
        u = np.tile([1.0, 0.0, 0.0], (m.n_nodes, 1))
        assert np.isnan(plateness(m, u))

    def test_localized_shear_high_plateness(self):
        """Two rigid plates with a narrow boundary: almost all surface
        strain in the boundary cells."""
        m = mesh(3)
        c = m.node_coords()
        u = np.zeros((m.n_nodes, 3))
        u[:, 0] = np.tanh((c[:, 1] - 0.5) / 0.05)
        p = plateness(m, u, quantile=0.8)
        assert p > 0.6

    def test_distributed_shear_lower_plateness(self):
        m = mesh(3)
        c = m.node_coords()
        u_loc = np.zeros((m.n_nodes, 3))
        u_loc[:, 0] = np.tanh((c[:, 1] - 0.5) / 0.05)
        u_dist = np.zeros((m.n_nodes, 3))
        u_dist[:, 0] = c[:, 1]  # uniform shear
        assert plateness(m, u_loc) > plateness(m, u_dist)


class TestProfilesTable:
    def test_from_simulation(self):
        from repro.rhea import MantleConvection, RheaConfig

        sim = MantleConvection(RheaConfig(initial_level=2, picard_iterations=1))
        sim.solve_stokes()
        out = depth_profiles_table(sim)
        assert set(out) == {"z", "T", "log10_eta", "edot"}
        assert len(out["z"]) == len(out["T"])
        # conductive-ish profile decreases with height
        valid = ~np.isnan(out["T"])
        assert out["T"][valid][0] > out["T"][valid][-1]
