"""Tests for RHEA viscosity laws and strain-rate computation."""

import numpy as np
import pytest

from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.rhea import (
    ArrheniusViscosity,
    YieldingViscosity,
    element_temperature,
    strain_rate_invariant,
)


class TestArrhenius:
    def test_isoviscous(self):
        law = ArrheniusViscosity(eta0=2.0, E=0.0)
        np.testing.assert_allclose(law(np.array([0.0, 0.5, 1.0]), np.zeros(3)), 2.0)

    def test_temperature_weakening(self):
        law = ArrheniusViscosity(eta0=1.0, E=6.9)
        eta = law(np.array([0.0, 1.0]), np.zeros(2))
        assert eta[0] / eta[1] == pytest.approx(np.exp(6.9))

    def test_clipping(self):
        law = ArrheniusViscosity(eta0=1.0, E=100.0, eta_min=1e-3, eta_max=10.0)
        eta = law(np.array([0.0, 1.0]), np.zeros(2))
        assert eta[1] == 1e-3


class TestYielding:
    def test_three_layers(self):
        law = YieldingViscosity()
        T = np.zeros(3)
        z = np.array([0.95, 0.85, 0.5])
        eta = law(T, z)
        np.testing.assert_allclose(eta, [10.0, 0.8, 50.0])

    def test_four_orders_of_magnitude(self):
        """The paper's regime: viscosities range over ~4 orders of
        magnitude across temperature and layering."""
        law = YieldingViscosity()
        T = np.array([1.0, 0.0])
        z = np.array([0.85, 0.5])  # hot aesthenosphere vs cold lower mantle
        eta = law(T, z)
        assert eta[1] / eta[0] > 1e4

    def test_yielding_caps_stress(self):
        law = YieldingViscosity(sigma_y=1.0)
        T = np.zeros(2)
        z = np.array([0.95, 0.95])
        edot = np.array([1e-6, 100.0])  # slow vs fast deformation
        eta = law(T, z, edot)
        assert eta[0] == pytest.approx(10.0)  # unyielded
        assert eta[1] == pytest.approx(1.0 / 200.0)  # sigma_y / (2 edot)

    def test_yielding_only_in_lithosphere(self):
        law = YieldingViscosity(sigma_y=1e-6)
        T = np.zeros(2)
        z = np.array([0.5, 0.95])
        edot = np.array([100.0, 100.0])
        eta = law(T, z, edot)
        assert eta[0] == pytest.approx(50.0)  # deep: no yielding
        assert eta[1] < 1e-3

    def test_yielded_mask(self):
        law = YieldingViscosity(sigma_y=1.0)
        mask = law.yielded_mask(
            np.zeros(2), np.array([0.95, 0.95]), np.array([1e-6, 100.0])
        )
        np.testing.assert_array_equal(mask, [False, True])


class TestStrainRate:
    @staticmethod
    def mesh():
        return extract_mesh(Forest.uniform(unit_cube(), 2))

    def test_rigid_translation_zero(self):
        m = self.mesh()
        u = np.tile([1.0, 2.0, 3.0], (m.n_nodes, 1))
        np.testing.assert_allclose(strain_rate_invariant(m, u), 0.0, atol=1e-12)

    def test_rigid_rotation_zero(self):
        m = self.mesh()
        c = m.node_coords()
        u = np.stack([-c[:, 1], c[:, 0], np.zeros(m.n_nodes)], axis=1)
        np.testing.assert_allclose(strain_rate_invariant(m, u), 0.0, atol=1e-12)

    def test_simple_shear(self):
        """u = (2y, 0, 0): e_xy = 1, second invariant sqrt(0.5*2*1) = 1."""
        m = self.mesh()
        c = m.node_coords()
        u = np.stack([2 * c[:, 1], np.zeros(m.n_nodes), np.zeros(m.n_nodes)], axis=1)
        np.testing.assert_allclose(strain_rate_invariant(m, u), 1.0, atol=1e-12)

    def test_uniaxial_extension(self):
        """u = (x, 0, 0): e = diag(1,0,0), invariant sqrt(1/2)."""
        m = self.mesh()
        c = m.node_coords()
        u = np.stack([c[:, 0], np.zeros(m.n_nodes), np.zeros(m.n_nodes)], axis=1)
        np.testing.assert_allclose(
            strain_rate_invariant(m, u), np.sqrt(0.5), atol=1e-12
        )

    def test_shape_check(self):
        m = self.mesh()
        with pytest.raises(ValueError):
            strain_rate_invariant(m, np.zeros((3, m.n_nodes)))


class TestElementTemperature:
    def test_linear_gives_centers(self):
        m = extract_mesh(Forest.uniform(unit_cube(), 1))
        c = m.node_coords()
        T = c[:, 2]
        np.testing.assert_allclose(
            element_temperature(m, T), m.element_centers()[:, 2], atol=1e-12
        )
