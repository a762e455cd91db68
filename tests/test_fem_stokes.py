"""Tests for the Stokes system + block preconditioner + MINRES stack."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fem import StokesSystem
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.solvers import GMGStokesPreconditioner, minres

from .oracles.stokes_blocks import (
    divergence_block,
    project_pressure_mean,
    saddle_matrix,
    stabilization_block,
    velocity_divergence_norm,
    viscous_block,
)


def make_mesh(level=2, adapt=False, seed=0, domain=(1.0, 1.0, 1.0)):
    tree = Forest.uniform(unit_cube(), level)
    if adapt:
        rng = np.random.default_rng(seed)
        tree = tree.refine(rng.random(len(tree)) < 0.25)
        tree = tree.balance("corner")[0]
    return extract_mesh(tree, domain)


def buoyancy(mesh, amplitude=1.0):
    """Smooth vertical body force (Ra T e_z analog)."""
    c = mesh.node_coords()
    f = np.zeros((mesh.n_nodes, 3))
    f[:, 2] = amplitude * np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 2])
    return f


def solve_stokes(stokes, tol=1e-8, maxiter=400):
    prec = GMGStokesPreconditioner(stokes)
    b = stokes.rhs()
    res = minres(stokes.matvec, b, M=prec.apply, tol=tol, maxiter=maxiter)
    return project_pressure_mean(stokes, res.x), res


class TestAssembledSystem:
    def test_saddle_operator_symmetric(self):
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements), buoyancy(mesh))
        K = saddle_matrix(st)
        assert (abs(K - K.T) > 1e-12).nnz == 0

    def test_matvec_matches_blocks(self):
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements), buoyancy(mesh))
        K = saddle_matrix(st)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(st.n_dof)
        np.testing.assert_allclose(st.matvec(x), K @ x, atol=1e-12)

    def test_input_validation(self):
        mesh = make_mesh(level=1)
        with pytest.raises(ValueError):
            StokesSystem(mesh, np.ones(3))
        with pytest.raises(ValueError):
            StokesSystem(mesh, -np.ones(mesh.n_elements))
        with pytest.raises(ValueError):
            StokesSystem(mesh, np.ones(mesh.n_elements), bc="slippery")

    def test_bc_dofs_identity_rows(self):
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements))
        d = st.bc.dofs
        rows = viscous_block(st)[d]
        # unit diagonal, nothing else
        assert rows.nnz == len(d)
        np.testing.assert_allclose(rows.data, 1.0)
        # divergence ignores constrained dofs
        assert abs(divergence_block(st)[:, d]).sum() == 0


class TestSolve:
    def test_matches_direct_solve(self):
        """MINRES + block preconditioner reproduces the direct solution
        (pressure compared up to its constant null space)."""
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements), buoyancy(mesh))
        x, res = solve_stokes(st, tol=1e-12)
        assert res.converged
        # direct reference with one pinned pressure dof
        K = saddle_matrix(st).tolil()
        b = st.rhs()
        pin = st.n_u  # first pressure dof
        K[pin, :] = 0.0
        K[:, pin] = 0.0
        K[pin, pin] = 1.0
        b = b.copy()
        b[pin] = 0.0
        xd = spla.spsolve(sp.csc_matrix(K), b)
        xd = project_pressure_mean(st, xd)
        np.testing.assert_allclose(x[: st.n_u], xd[: st.n_u], atol=1e-6)
        np.testing.assert_allclose(x[st.n_u :], xd[st.n_u :], atol=1e-5)

    def test_velocity_nearly_divergence_free(self):
        mesh = make_mesh(level=2)
        st = StokesSystem(mesh, np.ones(mesh.n_elements), buoyancy(mesh))
        x, res = solve_stokes(st, tol=1e-10)
        assert res.converged
        # the stabilized continuity equation holds exactly: B u = C p
        # (the divergence itself is only zero up to the consistency error
        # of the Dohrmann-Bochev stabilization, which vanishes with h)
        u, p = x[: st.n_u], x[st.n_u :]
        np.testing.assert_allclose(
            divergence_block(st) @ u, stabilization_block(st) @ p, atol=1e-9
        )
        div = velocity_divergence_norm(st, x)
        assert div < 0.1 * max(np.linalg.norm(u), 1e-30) + 1e-8

    def test_free_slip_normal_velocity_zero(self):
        mesh = make_mesh(level=2, adapt=True, seed=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements), buoyancy(mesh))
        x, res = solve_stokes(st)
        n = mesh.n_independent
        for a in range(3):
            d = st.bc.per_component[a]
            np.testing.assert_allclose(x[a * n + d], 0.0, atol=1e-12)

    def test_variable_viscosity_converges(self):
        """4 orders of magnitude viscosity contrast (Section VI regime)."""
        mesh = make_mesh(level=2, adapt=True, seed=2)
        c = mesh.element_centers()
        eta = np.where(c[:, 2] > 0.5, 1e2, 1e-2)
        st = StokesSystem(mesh, eta, buoyancy(mesh))
        x, res = solve_stokes(st, tol=1e-8, maxiter=600)
        assert res.converged

    def test_iterations_insensitive_to_refinement(self):
        """The Figure-2 property at test scale: MINRES iterations stay in
        a narrow band as the mesh refines."""
        its = []
        for level in (1, 2):
            mesh = make_mesh(level=level)
            c = mesh.element_centers()
            eta = np.exp(3.0 * c[:, 2])  # smooth variation
            st = StokesSystem(mesh, eta, buoyancy(mesh))
            _, res = solve_stokes(st, tol=1e-8)
            assert res.converged
            its.append(res.iterations)
        assert its[1] < 3 * max(its[0], 10)

    def test_zero_force_zero_flow(self):
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements))
        x, res = solve_stokes(st)
        np.testing.assert_allclose(x, 0.0, atol=1e-12)


class TestPreconditioner:
    def test_apply_is_spd(self):
        mesh = make_mesh(level=2)  # two grid levels, not only the dense one
        st = StokesSystem(mesh, np.ones(mesh.n_elements))
        prec = GMGStokesPreconditioner(st)
        assert len(prec.gmg.levels) == 2
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, st.n_dof))
        assert x @ prec.apply(y) == pytest.approx(y @ prec.apply(x), rel=1e-9)
        assert x @ prec.apply(x) > 0

    def test_vcycle_counter(self):
        """One stacked V-cycle per apply (the three per-component AMG
        cycles it replaced counted 3)."""
        mesh = make_mesh(level=1)
        st = StokesSystem(mesh, np.ones(mesh.n_elements))
        prec = GMGStokesPreconditioner(st)
        prec.apply(np.ones(st.n_dof))
        assert prec.n_vcycles == 1


class TestBatchAxis:
    """A ``(nb, ne)`` viscosity and an ``(n_nodes, 3, nb)`` body force
    make ``nb`` systems in one, column by column the one-column system."""

    @staticmethod
    def problem(nb=3):
        mesh = make_mesh(level=2, adapt=True, seed=3)
        rng = np.random.default_rng(11)
        eta = np.exp(rng.uniform(-3.0, 3.0, (nb, mesh.n_elements)))
        bf = np.stack([buoyancy(mesh, a) for a in (1.0, -2.5, 40.0)], axis=2)
        bf[:, 0] = rng.standard_normal((mesh.n_nodes, nb))
        return mesh, eta, bf

    def test_columns_are_the_one_column_systems(self):
        mesh, eta, bf = self.problem()
        st = StokesSystem(mesh, eta, bf)
        X = np.random.default_rng(12).standard_normal((st.n_dof, 3))
        b, d, Y = st.rhs(), st.schur_diagonal(), st.matvec(X)
        assert b.shape == Y.shape == (st.n_dof, 3)
        assert d.shape == (st.n_p, 3)
        for j in range(3):
            one = StokesSystem(mesh, eta[j], bf[..., j])
            np.testing.assert_array_equal(b[:, j], one.rhs())
            np.testing.assert_allclose(d[:, j], one.schur_diagonal(), rtol=1e-14, atol=0)
            y = one.matvec(X[:, j])
            assert np.max(np.abs(Y[:, j] - y)) <= 1e-14 * np.max(np.abs(y))

    def test_update_viscosity_is_a_fresh_build(self):
        mesh, eta, bf = self.problem()
        st = StokesSystem(mesh, eta, bf)
        eta2 = eta[::-1] * 10.0
        st.update_viscosity(eta2)
        fresh = StokesSystem(mesh, eta2, bf)
        X = np.random.default_rng(13).standard_normal((st.n_dof, 3))
        np.testing.assert_array_equal(st.rhs(), fresh.rhs())
        np.testing.assert_array_equal(st.schur_diagonal(), fresh.schur_diagonal())
        np.testing.assert_array_equal(st.matvec(X), fresh.matvec(X))
        with pytest.raises(ValueError, match="viscosity"):
            st.update_viscosity(eta2[:2])

    def test_batch_mismatch_raises(self):
        mesh, eta, bf = self.problem()
        with pytest.raises(ValueError, match="body_force"):
            StokesSystem(mesh, eta, bf[..., :2])
        with pytest.raises(ValueError, match="body_force"):
            StokesSystem(mesh, eta[0], bf)
        with pytest.raises(ValueError, match="body_force"):
            StokesSystem(mesh, eta, bf[..., 0])
