"""Analytic checks of the tensor-product element matrices."""

import numpy as np

from repro.fem.hexops import ElementOps

from .oracles.assembly import dense

OPS = ElementOps()
SIZES = np.array([[1.0, 1.0, 1.0], [0.5, 0.25, 2.0]])


def corner_coords(sizes):
    """(n, 8, 3) vertex coordinates of elements anchored at the origin."""
    out = np.zeros((len(sizes), 8, 3))
    for i in range(8):
        out[:, i, 0] = (i & 1) * sizes[:, 0]
        out[:, i, 1] = ((i >> 1) & 1) * sizes[:, 1]
        out[:, i, 2] = ((i >> 2) & 1) * sizes[:, 2]
    return out


class TestMass:
    def test_total_mass_is_volume(self):
        M = OPS.mass(SIZES)
        np.testing.assert_allclose(M.sum(axis=(1, 2)), SIZES.prod(axis=1))

    def test_symmetric_positive_definite(self):
        M = OPS.mass(SIZES)
        for Me in M:
            np.testing.assert_allclose(Me, Me.T)
            assert np.linalg.eigvalsh(Me).min() > 0

    def test_coefficient_scaling(self):
        M1 = OPS.mass(SIZES, 1.0)
        M3 = OPS.mass(SIZES, np.array([3.0, 5.0]))
        np.testing.assert_allclose(M3[0], 3 * M1[0])
        np.testing.assert_allclose(M3[1], 5 * M1[1])

    def test_linear_exactness(self):
        """v^T M u with nodal linears equals the exact integral of the
        product over the box (trilinear quadrature is exact to bilinear)."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        M = OPS.mass(sizes)[0]
        c = corner_coords(sizes)[0]
        u = c[:, 0]  # u = x
        one = np.ones(8)
        # int_box x = hx^2/2 * hy * hz
        np.testing.assert_allclose(one @ M @ u, 2.0**2 / 2 * 3 * 4)


class TestStiffness:
    def test_annihilates_constants(self):
        K = OPS.stiffness(SIZES)
        np.testing.assert_allclose(K @ np.ones(8), 0.0, atol=1e-14)

    def test_dirichlet_energy_of_linear(self):
        """u = x on a box: integral |grad u|^2 = volume."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        K = OPS.stiffness(sizes)[0]
        u = corner_coords(sizes)[0][:, 0]
        np.testing.assert_allclose(u @ K @ u, 24.0)

    def test_spd_on_mean_zero(self):
        K = OPS.stiffness(SIZES, np.array([1.0, 7.0]))
        for Ke in K:
            np.testing.assert_allclose(Ke, Ke.T, atol=1e-14)
            w = np.linalg.eigvalsh(Ke)
            assert w[0] > -1e-12 and w[1] > 1e-12  # exactly one zero mode


class TestConvection:
    def test_constant_velocity_linear_field(self):
        """sum_i [C u]_i = int a . grad(u); for u = x, a = (2,0,0) this is
        2 * volume."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        C = OPS.convection(sizes, np.array([[2.0, 0.0, 0.0]]))[0]
        u = corner_coords(sizes)[0][:, 0]
        np.testing.assert_allclose(np.ones(8) @ C @ u, 2.0 * 24.0)

    def test_annihilates_constants(self):
        C = OPS.convection(SIZES, np.array([[1.0, 2.0, 3.0], [0.5, 0, 0]]))
        np.testing.assert_allclose(C @ np.ones(8), 0.0, atol=1e-14)

    def test_supg_mass_is_transpose(self):
        vel = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
        C = OPS.convection(SIZES, vel)
        S = OPS.supg_mass(SIZES, vel)
        np.testing.assert_allclose(S, np.swapaxes(C, 1, 2))


def streamline(sizes, vel):
    """``int (a.grad N_i)(a.grad N_j)``: the tau-weighted part of
    ``supg_operator`` (no diffusion, convection taken off)."""
    supg = OPS.supg_operator(sizes, vel, 0.0, np.ones(len(sizes)))
    return dense(supg) - OPS.convection(sizes, vel)


class TestGradGrad:
    def test_matches_streamline_energy(self):
        """u = a.x (linear along the wind): u^T GG u = |a|^4 * volume,
        since (a.grad u) = |a|^2 everywhere."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        a = np.array([[1.0, 2.0, -1.0]])
        GG = streamline(sizes, a)[0]
        c = corner_coords(sizes)[0]
        u = c @ a[0]
        expect = (a[0] @ a[0]) ** 2 * 24.0
        np.testing.assert_allclose(u @ GG @ u, expect)

    def test_psd(self):
        GG = streamline(SIZES, np.array([[1.0, 1.0, 1.0], [0.1, -2.0, 0.4]]))
        for Ge in GG:
            np.testing.assert_allclose(Ge, Ge.T, atol=1e-13)
            assert np.linalg.eigvalsh(Ge).min() > -1e-12


class TestStrainStiffness:
    def test_symmetry(self):
        K = OPS.strain_stiffness(SIZES, np.array([1.0, 10.0]))
        for Ke in K:
            np.testing.assert_allclose(Ke, Ke.T, atol=1e-12)

    def test_six_rigid_body_modes(self):
        """The strain form annihilates exactly the 6 rigid motions
        (3 translations + 3 linearized rotations)."""
        sizes = np.array([[1.0, 1.0, 1.0]])
        K = OPS.strain_stiffness(sizes, np.array([2.0]))[0]
        w = np.linalg.eigvalsh(K)
        assert np.sum(np.abs(w) < 1e-10) == 6
        assert w.min() > -1e-10

    def test_rotation_mode_explicit(self):
        sizes = np.array([[1.0, 1.0, 1.0]])
        K = OPS.strain_stiffness(sizes, np.array([1.0]))[0]
        c = corner_coords(sizes)[0]
        # rotation about z: u = (-y, x, 0); component-blocked layout
        u = np.concatenate([-c[:, 1], c[:, 0], np.zeros(8)])
        np.testing.assert_allclose(K @ u, 0.0, atol=1e-12)

    def test_shear_energy(self):
        """u = (y, 0, 0): strain form energy = 2 eta int e:e = eta * V."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        eta = 5.0
        K = OPS.strain_stiffness(sizes, np.array([eta]))[0]
        c = corner_coords(sizes)[0]
        u = np.concatenate([c[:, 1], np.zeros(8), np.zeros(8)])
        # (grad u + grad u^T):grad u for u=(y,0,0): e12=e21=1/2 ->
        # integrand eta * (du1/dy)*(du1/dy + du2/dx)= eta*1 -> eta*V
        np.testing.assert_allclose(u @ K @ u, eta * 24.0)

    def test_viscosity_scaling(self):
        K1 = OPS.strain_stiffness(SIZES, np.array([1.0, 1.0]))
        K9 = OPS.strain_stiffness(SIZES, np.array([9.0, 9.0]))
        np.testing.assert_allclose(K9, 9 * K1)


class TestDivergence:
    def test_divergence_of_linear_flow(self):
        """u = (x, 0, 0): B u tested with 1 gives int div u = volume."""
        sizes = np.array([[2.0, 3.0, 4.0]])
        B = OPS.divergence(sizes)[0]
        c = corner_coords(sizes)[0]
        u = np.concatenate([c[:, 0], np.zeros(8), np.zeros(8)])
        np.testing.assert_allclose(np.ones(8) @ B @ u, 24.0)

    def test_divergence_free_shear(self):
        sizes = np.array([[1.0, 1.0, 1.0]])
        B = OPS.divergence(sizes)[0]
        c = corner_coords(sizes)[0]
        u = np.concatenate([c[:, 1], np.zeros(8), np.zeros(8)])  # u=(y,0,0)
        np.testing.assert_allclose(B @ u, 0.0, atol=1e-14)


class TestPressureStabilization:
    def test_annihilates_constants(self):
        C = OPS.pressure_stabilization(SIZES, np.array([1.0, 100.0]))
        np.testing.assert_allclose(C @ np.ones(8), 0.0, atol=1e-13)

    def test_psd(self):
        C = OPS.pressure_stabilization(SIZES, np.array([1.0, 0.01]))
        for Ce in C:
            np.testing.assert_allclose(Ce, Ce.T, atol=1e-13)
            assert np.linalg.eigvalsh(Ce).min() > -1e-12

    def test_inverse_viscosity_scaling(self):
        C1 = OPS.pressure_stabilization(SIZES, np.array([1.0, 1.0]))
        C4 = OPS.pressure_stabilization(SIZES, np.array([4.0, 4.0]))
        np.testing.assert_allclose(C1, 4 * C4)
