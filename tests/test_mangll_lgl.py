"""Tests for LGL operators and the derivative kernels."""

import numpy as np
import pytest

from repro.mangll import (
    DerivativeKernel,
    diff_matrix,
    lagrange_basis_at,
    lgl_nodes,
)

from .figures.kernels import (
    contract_axis,
    gradient,
    gradient_matrix,
    gradient_tensor,
    matrix_flops,
    tensor_flops,
)


class TestLglNodes:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_endpoints_and_symmetry(self, p):
        x, w = lgl_nodes(p)
        assert len(x) == p + 1
        assert x[0] == -1.0 and x[-1] == 1.0
        np.testing.assert_allclose(x, -x[::-1], atol=1e-13)
        np.testing.assert_allclose(w, w[::-1], atol=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_weights_sum_to_two(self, p):
        _, w = lgl_nodes(p)
        np.testing.assert_allclose(w.sum(), 2.0, rtol=1e-13)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_quadrature_exactness(self, p):
        """LGL is exact for polynomials of degree 2p - 1."""
        x, w = lgl_nodes(p)
        for deg in range(2 * p):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            np.testing.assert_allclose((w * x**deg).sum(), exact, atol=1e-12)

    def test_p2_known_values(self):
        x, w = lgl_nodes(2)
        np.testing.assert_allclose(x, [-1, 0, 1])
        np.testing.assert_allclose(w, [1 / 3, 4 / 3, 1 / 3])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            lgl_nodes(0)


class TestDiffMatrix:
    @pytest.mark.parametrize("p", [1, 3, 5, 8])
    def test_exact_on_polynomials(self, p):
        x, _ = lgl_nodes(p)
        D = diff_matrix(x)
        for deg in range(p + 1):
            u = x**deg
            du = deg * x ** max(deg - 1, 0) if deg > 0 else np.zeros_like(x)
            np.testing.assert_allclose(D @ u, du, atol=1e-10)

    def test_constant_row_sums(self):
        x, _ = lgl_nodes(4)
        np.testing.assert_allclose(diff_matrix(x).sum(axis=1), 0.0, atol=1e-12)


class TestLagrange:
    def test_interpolation_identity(self):
        x, _ = lgl_nodes(3)
        M = lagrange_basis_at(x, x)
        np.testing.assert_allclose(M, np.eye(4), atol=1e-12)

    def test_interpolation_exact_for_polynomials(self):
        x, _ = lgl_nodes(3)
        pts = np.linspace(-1, 1, 11)
        M = lagrange_basis_at(x, pts)
        u = 2 * x**3 - x + 0.5
        np.testing.assert_allclose(M @ u, 2 * pts**3 - pts + 0.5, atol=1e-12)

    def test_partition_of_unity(self):
        x, _ = lgl_nodes(5)
        M = lagrange_basis_at(x, np.linspace(-1, 1, 7))
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)


class TestDerivativeKernel:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_variants_agree(self, p):
        kern = DerivativeKernel(p)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((5, (p + 1) ** 3))
        for a, b in zip(gradient_matrix(kern, u), gradient_tensor(kern, u)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    @pytest.mark.parametrize("p", range(1, 9))
    def test_variants_agree_leading_axes(self, p):
        """The (ne, nfields, n^3) form: every leading axis is a batch axis,
        and each field's gradient equals that of the field alone."""
        kern = DerivativeKernel(p)
        u = np.random.default_rng(p).standard_normal((4, 3, (p + 1) ** 3))
        tensor = gradient(kern, u, "tensor")
        for a, b in zip(gradient(kern, u, "matrix"), tensor):
            assert b.shape == u.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        for a, b in zip(gradient_tensor(kern, u[:, 1]), tensor):
            np.testing.assert_array_equal(a, b[:, 1])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_contract_axis_rectangular(self, axis):
        """contract_axis takes any (m, n) operator and leading axes."""
        rng = np.random.default_rng(axis)
        A = rng.standard_normal((6, 4))
        u = rng.standard_normal((3, 2, 4, 4, 4))
        spec = ["ab,...tsb->...tsa", "ab,...tbr->...tar", "ab,...bsr->...asr"][axis]
        np.testing.assert_allclose(
            contract_axis(A, u, axis), np.einsum(spec, A, u), rtol=0, atol=1e-13
        )

    def test_gradient_exact_on_trilinear(self):
        p = 3
        kern = DerivativeKernel(p)
        g = kern.nodes
        T, S, R = np.meshgrid(g, g, g, indexing="ij")
        u = (2 * R + 3 * S - S * T).ravel()[None, :]
        dr, ds, dt = gradient_tensor(kern, u)
        np.testing.assert_allclose(dr[0], 2.0, atol=1e-11)
        np.testing.assert_allclose(ds[0], (3 - T).ravel(), atol=1e-11)
        np.testing.assert_allclose(dt[0], (-S).ravel(), atol=1e-11)

    def test_flop_counts(self):
        assert matrix_flops(4) == 6 * 5**6
        assert tensor_flops(4) == 6 * 5**4
        assert matrix_flops(2) == 6 * 3**6
        assert tensor_flops(2) == 6 * 3**4

    def test_flop_ratio_at_p6(self):
        """Paper: at p = 6 the tensor variant does ~20x fewer flops."""
        ratio = matrix_flops(6) / tensor_flops(6)
        assert ratio == pytest.approx(49.0)  # (p+1)^2
        # the paper's "20 times fewer" counts the full operator; the
        # element derivative alone is (p+1)^2 = 49x

    def test_unknown_variant(self):
        kern = DerivativeKernel(1)
        with pytest.raises(ValueError):
            gradient(kern, np.zeros((1, 8)), "quantum")
