"""Tests for SUPG advection-diffusion and its explicit stepping."""

import numpy as np
import pytest

from repro.fem import AdvectionDiffusion, element_velocity_from_nodal, supg_tau
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh

from .oracles.supg import assembled_operator


def make_mesh(level=2, adapt=False, seed=0, domain=(1.0, 1.0, 1.0)):
    tree = Forest.uniform(unit_cube(), level)
    if adapt:
        rng = np.random.default_rng(seed)
        tree = tree.refine(rng.random(len(tree)) < 0.3)
        tree = tree.balance("corner")[0]
    return extract_mesh(tree, domain)


class TestSupgTau:
    def test_advection_limit(self):
        """High speed: tau -> h / (2 |a|)."""
        sizes = np.array([[0.1, 0.1, 0.1]])
        vel = np.array([[100.0, 0.0, 0.0]])
        tau = supg_tau(sizes, vel, kappa=1e-8)
        np.testing.assert_allclose(tau, 0.1 / 200.0, rtol=1e-3)

    def test_diffusion_limit(self):
        sizes = np.array([[0.1, 0.1, 0.1]])
        tau = supg_tau(sizes, np.zeros((1, 3)), kappa=1.0)
        np.testing.assert_allclose(tau, 0.01 / 12.0, rtol=1e-6)


class TestElementVelocity:
    def test_constant_field(self):
        mesh = make_mesh(1)
        u = np.tile(np.array([1.0, 2.0, 3.0]), (mesh.n_nodes, 1))
        ev = element_velocity_from_nodal(mesh, u)
        np.testing.assert_allclose(ev, np.tile([1.0, 2.0, 3.0], (mesh.n_elements, 1)))

    def test_linear_field_gives_centers(self):
        mesh = make_mesh(2)
        coords = mesh.node_coords()
        u = np.stack([coords[:, 0], coords[:, 1], coords[:, 2]], axis=1)
        ev = element_velocity_from_nodal(mesh, u)
        np.testing.assert_allclose(ev, mesh.element_centers(), atol=1e-12)

    def test_only_the_node_major_layout(self):
        """``(n_nodes, 3)`` is the one layout; a transposed field is an
        error, not a guess."""
        mesh = make_mesh(1)
        u = np.ones((mesh.n_nodes, 3))
        with pytest.raises(ValueError, match="n_nodes, 3"):
            element_velocity_from_nodal(mesh, u.T)
        with pytest.raises(ValueError, match="n_nodes, 3"):
            element_velocity_from_nodal(mesh, u[:-1])


class TestAdvectionDiffusion:
    def test_steady_state_preserved(self):
        """Pure diffusion with a linear-in-z profile and matching Dirichlet
        values is a steady state: stepping must not change it."""
        mesh = make_mesh(2, adapt=True, seed=1)
        vel = np.zeros((mesh.n_elements, 3))
        eq = AdvectionDiffusion(mesh, kappa=1.0, vel=vel,
                                dirichlet=[(2, 0, 1.0), (2, 1, 0.0)])
        coords = mesh.node_coords()
        T = (1.0 - coords[:, 2])[mesh.indep_nodes]
        dt = eq.cfl_dt(0.4)
        T2 = eq.advance(T, dt, 5)
        np.testing.assert_allclose(T2, T, atol=1e-10)

    def test_constant_state_preserved_under_advection(self):
        mesh = make_mesh(2)
        vel = np.tile([1.0, 0.5, 0.0], (mesh.n_elements, 1))
        eq = AdvectionDiffusion(mesh, kappa=0.0, vel=vel)
        T = np.ones(mesh.n_independent)
        T2 = eq.advance(T, eq.cfl_dt(0.3), 10)
        np.testing.assert_allclose(T2, 1.0, atol=1e-12)

    def test_maximum_principle_approximately(self):
        """SUPG keeps over/undershoots of a transported front small."""
        mesh = make_mesh(3)
        vel = np.tile([1.0, 0.0, 0.0], (mesh.n_elements, 1))
        eq = AdvectionDiffusion(mesh, kappa=1e-6, vel=vel)
        coords = mesh.node_coords()[mesh.indep_nodes]
        T = 0.5 * (1.0 - np.tanh((coords[:, 0] - 0.3) / 0.1))
        dt = eq.cfl_dt(0.25)
        T2 = eq.advance(T, dt, 20)
        assert T2.max() < 1.25
        assert T2.min() > -0.25

    def test_front_moves_downstream(self):
        mesh = make_mesh(3)
        vel = np.tile([1.0, 0.0, 0.0], (mesh.n_elements, 1))
        eq = AdvectionDiffusion(mesh, kappa=1e-6, vel=vel)
        coords = mesh.node_coords()[mesh.indep_nodes]
        T = np.exp(-(((coords[:, 0] - 0.3) / 0.15) ** 2))
        dt = eq.cfl_dt(0.25)
        n = int(0.2 / dt)
        T2 = eq.advance(T, dt, n)
        x_peak_before = coords[np.argmax(T), 0]
        x_peak_after = coords[np.argmax(T2), 0]
        assert x_peak_after > x_peak_before + 0.05

    def test_diffusion_decays_energy(self):
        mesh = make_mesh(2)
        eq = AdvectionDiffusion(mesh, kappa=1.0, vel=np.zeros((mesh.n_elements, 3)),
                                dirichlet=[(2, 0, 0.0), (2, 1, 0.0)])
        coords = mesh.node_coords()[mesh.indep_nodes]
        T = np.sin(np.pi * coords[:, 2])
        dt = eq.cfl_dt(0.4)
        T2 = eq.advance(T, dt, 10)
        assert np.abs(T2).max() < np.abs(T).max()

    def test_source_heats_interior(self):
        mesh = make_mesh(2)
        eq = AdvectionDiffusion(
            mesh, kappa=1.0, vel=np.zeros((mesh.n_elements, 3)),
            source=10.0, dirichlet=[(2, 0, 0.0), (2, 1, 0.0)]
        )
        T = np.zeros(mesh.n_independent)
        T2 = eq.advance(T, eq.cfl_dt(0.4), 10)
        assert T2.max() > 0.0

    def test_cfl_dt_scales_with_h(self):
        dts = []
        for level in (2, 3):
            mesh = make_mesh(level)
            vel = np.tile([1.0, 0.0, 0.0], (mesh.n_elements, 1))
            eq = AdvectionDiffusion(mesh, kappa=0.0, vel=vel)
            dts.append(eq.cfl_dt())
        assert dts[1] == pytest.approx(dts[0] / 2)

    def test_vel_shape_checked(self):
        mesh = make_mesh(1)
        with pytest.raises(ValueError):
            AdvectionDiffusion(mesh, 1.0, np.zeros((3, 3)))

    def test_no_cfl_without_physics(self):
        mesh = make_mesh(1)
        eq = AdvectionDiffusion(mesh, kappa=0.0, vel=np.zeros((mesh.n_elements, 3)))
        with pytest.raises(ValueError):
            eq.cfl_dt()


class TestBatchAxis:
    def test_columns_match_serial_instances(self):
        """``nb = 3`` columns with different diffusivity, velocity, time
        step and initial field advance as three serial solvers would:
        the serial solver is the one-column case of the same code, and
        each column is its own CSR, so they agree bit for bit."""
        mesh = make_mesh(2, adapt=True, seed=3)
        rng = np.random.default_rng(7)
        nb = 3
        kappa = np.array([1e-3, 0.5, 0.0])
        vel = rng.standard_normal((nb, mesh.n_elements, 3)) * np.array([1.0, 0.2, 3.0])[:, None, None]
        bcs = [(2, 0, 1.0), (2, 1, 0.0)]
        T0 = rng.random((mesh.n_independent, nb))

        batch = AdvectionDiffusion(mesh, kappa, vel, dirichlet=bcs)
        dt = batch.cfl_dt(np.array([0.4, 0.25, 0.1]))
        assert dt.shape == (nb,)
        Tb = batch.advance(T0, dt, 5)
        for j in range(nb):
            one = AdvectionDiffusion(mesh, kappa[j], vel[j], dirichlet=bcs)
            assert one.cfl_dt([0.4, 0.25, 0.1][j]) == dt[j]
            np.testing.assert_array_equal(Tb[:, j], one.advance(T0[:, j], dt[j], 5))

    def test_batched_source_matches_serial_instances(self):
        """Per-column internal heating: each column's load is its serial
        instance's load, and the columns advance as the serial instances
        do, bit for bit; so does a width-1 batch."""
        mesh = make_mesh(2, adapt=True, seed=5)
        rng = np.random.default_rng(11)
        kappa = np.array([1e-3, 0.5, 0.05])
        source = np.array([0.0, 1.0, 2.5])
        vel = rng.standard_normal((3, mesh.n_elements, 3))
        bcs = [(2, 0, 1.0), (2, 1, 0.0)]
        T0 = rng.random((mesh.n_independent, 3))

        batch = AdvectionDiffusion(mesh, kappa, vel, source=source, dirichlet=bcs)
        assert batch.b.shape == (mesh.n_independent, 3)
        dt = batch.cfl_dt(0.4)
        Tb = batch.advance(T0, dt, 6)
        for j in range(3):
            one = AdvectionDiffusion(mesh, kappa[j], vel[j], source=source[j], dirichlet=bcs)
            np.testing.assert_array_equal(batch.b[:, j], one.b)
            T1 = one.advance(T0[:, j], dt[j], 6)
            np.testing.assert_array_equal(Tb[:, j], T1)
            col = AdvectionDiffusion(
                mesh, kappa[j : j + 1], vel[j : j + 1], source=source[j : j + 1], dirichlet=bcs
            )
            np.testing.assert_array_equal(col.advance(T0[:, j : j + 1], dt[j : j + 1], 6)[:, 0], T1)
        # a scalar source is every column's: column 1 above had source 1.0
        alike = AdvectionDiffusion(mesh, kappa, vel, source=1.0, dirichlet=bcs)
        np.testing.assert_array_equal(alike.b[:, 1], batch.b[:, 1])
        with pytest.raises(ValueError):
            AdvectionDiffusion(mesh, kappa[0], vel[0], source=source)

    def test_operator_matches_termwise_assembly(self):
        """Each column's operator is the SUPG operator assembled term by
        term through the COO scatter and ``Z^T A Z``, on a mesh with
        edge- and face-hanging nodes, to round-off; a one-column solver
        holds the batch's CSR bit for bit."""
        mesh = make_mesh(3, adapt=True, seed=5)
        assert mesh.hanging.any()
        rng = np.random.default_rng(10)
        kappa = np.array([0.02, 1e-4, 0.0])
        vel = rng.standard_normal((3, mesh.n_elements, 3))
        batch = AdvectionDiffusion(mesh, kappa, vel)
        T = rng.standard_normal((mesh.n_independent, 3))
        for j, A in enumerate(batch.A):
            want = assembled_operator(mesh, kappa[j], vel[j], batch.tau[j])
            assert abs(A - want).max() <= 1e-13 * abs(want).max()
            (one,) = AdvectionDiffusion(mesh, kappa[j], vel[j]).A
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(one, name), getattr(A, name))
            ref = want @ T[:, j]
            assert np.max(np.abs(A @ T[:, j] - ref)) <= 1e-12 * np.max(np.abs(ref))
