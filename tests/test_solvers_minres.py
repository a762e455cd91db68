"""Tests for the MINRES implementation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import minres


def random_symmetric(n, seed=0, indefinite=True):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.5, 5.0, n)
    if indefinite:
        w[: n // 3] *= -1
    return Q @ np.diag(w) @ Q.T


class TestMinres:
    def test_spd_system(self):
        A = random_symmetric(30, seed=1, indefinite=False)
        b = np.arange(30, dtype=float)
        res = minres(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-7)

    def test_indefinite_system(self):
        """MINRES's raison d'etre: symmetric indefinite saddle systems."""
        A = random_symmetric(40, seed=2, indefinite=True)
        b = np.ones(40)
        res = minres(A, b, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-6)

    def test_preconditioned_converges_faster(self):
        A = random_symmetric(60, seed=3, indefinite=True)
        b = np.ones(60)
        plain = minres(A, b, tol=1e-8, maxiter=200)
        # exact |A|^{-1}-ish SPD preconditioner: (A^2)^{-1/2} via eigen
        w, V = np.linalg.eigh(A)
        Minv = V @ np.diag(1.0 / np.abs(w)) @ V.T
        prec = minres(A, b, M=lambda r: Minv @ r, tol=1e-8, maxiter=200)
        assert prec.converged
        assert prec.iterations < plain.iterations

    def test_zero_rhs(self):
        A = random_symmetric(10, seed=4)
        res = minres(A, np.zeros(10))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_initial_guess(self):
        A = random_symmetric(20, seed=5, indefinite=False)
        xtrue = np.linspace(0, 1, 20)
        b = A @ xtrue
        res = minres(A, b, x0=xtrue.copy(), tol=1e-12)
        assert res.iterations == 0
        np.testing.assert_allclose(res.x, xtrue)

    def test_residual_history_monotone(self):
        A = random_symmetric(50, seed=6)
        res = minres(A, np.ones(50), tol=1e-10)
        r = np.array(res.residuals)
        assert np.all(np.diff(r) <= 1e-12)  # MINRES residuals never increase

    def test_sparse_and_callable_operator(self):
        A = sp.csr_matrix(random_symmetric(25, seed=7))
        b = np.ones(25)
        r1 = minres(A, b, tol=1e-10)
        r2 = minres(lambda x: A @ x, b, tol=1e-10)
        np.testing.assert_allclose(r1.x, r2.x, atol=1e-10)

    def test_maxiter_respected(self):
        A = random_symmetric(80, seed=8)
        res = minres(A, np.ones(80), tol=1e-14, maxiter=5)
        assert not res.converged
        assert res.iterations == 5

    def test_indefinite_preconditioner_rejected(self):
        A = random_symmetric(10, seed=9, indefinite=False)
        with pytest.raises(ValueError):
            minres(A, np.ones(10), M=lambda r: -r)

    def test_callback_kwarg_is_gone(self):
        """Nothing called it; a removed kwarg is rejected, not ignored."""
        with pytest.raises(TypeError):
            minres(np.eye(3), np.ones(3), callback=lambda x: None)
