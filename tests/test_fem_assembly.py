"""Assembly + Poisson patch/convergence tests on adapted meshes, and the
Galerkin product against the COO path it replaced."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fem import (
    apply_dirichlet,
    assemble_divergence,
    assemble_rhs,
    assemble_scalar,
    assemble_vector,
    lumped_mass,
)
from repro.fem.hexops import ElementOps
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh

from .oracles.assembly import coo_divergence, coo_scalar, coo_vector

OPS = ElementOps()


def adapted_mesh(seed=0, rounds=2, start=1, domain=(1.0, 1.0, 1.0)):
    rng = np.random.default_rng(seed)
    tree = Forest.uniform(unit_cube(), start)
    for _ in range(rounds):
        tree = tree.refine(rng.random(len(tree)) < 0.3)
    return extract_mesh(tree.balance("corner")[0], domain)


def solve_poisson(mesh, f_exact, u_exact):
    """Solve -lap u = f with Dirichlet BC from u_exact; return L_inf error
    at independent nodes."""
    sizes = mesh.element_sizes()
    K = assemble_scalar(mesh, OPS.stiffness(sizes))
    coords = mesh.node_coords()
    # consistent load: M f with f sampled nodally (2nd-order accurate)
    Mfull = assemble_scalar(mesh, OPS.mass(sizes), constrain=False)
    b = mesh.Z.T @ (Mfull @ f_exact(coords))
    bdofs = mesh.dof_of_node[np.flatnonzero(mesh.boundary_node_mask())]
    bdofs = np.unique(bdofs[bdofs >= 0])
    uvals = u_exact(coords[mesh.indep_nodes[bdofs]])
    K, b = apply_dirichlet(K, b, bdofs, uvals)
    u = spla.spsolve(K.tocsc(), b)
    return np.abs(u - u_exact(coords[mesh.indep_nodes])).max()


class TestPatch:
    def test_linear_patch_exact_on_adapted_mesh(self):
        """Linear solutions are reproduced exactly, hanging nodes and all
        (the classic patch test for nonconforming constraints)."""
        mesh = adapted_mesh(seed=5)
        err = solve_poisson(
            mesh,
            f_exact=lambda c: np.zeros(len(c)),
            u_exact=lambda c: 2 * c[:, 0] - c[:, 1] + 3 * c[:, 2] + 1,
        )
        assert err < 1e-9

    def test_patch_on_scaled_domain(self):
        mesh = adapted_mesh(seed=2, domain=(8.0, 4.0, 1.0))
        err = solve_poisson(
            mesh,
            f_exact=lambda c: np.zeros(len(c)),
            u_exact=lambda c: 0.5 * c[:, 0] + c[:, 2],
        )
        assert err < 1e-9


class TestConvergence:
    def test_h2_convergence_uniform(self):
        """Manufactured u = sin(pi x) sin(pi y) sin(pi z) converges at
        O(h^2) in the max norm on uniform meshes."""

        def u_exact(c):
            return np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1]) * np.sin(np.pi * c[:, 2])

        def f_exact(c):
            return 3 * np.pi**2 * u_exact(c)

        errs = []
        for lvl in (2, 3):
            mesh = extract_mesh(Forest.uniform(unit_cube(), lvl))
            errs.append(solve_poisson(mesh, f_exact, u_exact))
        rate = np.log2(errs[0] / errs[1])
        assert 1.6 < rate < 2.6

    def test_adapted_mesh_solution_reasonable(self):
        def u_exact(c):
            return np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1]) * np.sin(np.pi * c[:, 2])

        def f_exact(c):
            return 3 * np.pi**2 * u_exact(c)

        mesh = adapted_mesh(seed=1, rounds=2, start=2)
        err = solve_poisson(mesh, f_exact, u_exact)
        assert err < 0.05


class TestLumpedMass:
    def test_total_mass(self):
        mesh = adapted_mesh(seed=3, domain=(2.0, 1.0, 1.0))
        ml = lumped_mass(mesh, OPS.mass(mesh.element_sizes()))
        np.testing.assert_allclose(ml.sum(), 2.0, rtol=1e-12)

    def test_positive(self):
        mesh = adapted_mesh(seed=4)
        ml = lumped_mass(mesh, OPS.mass(mesh.element_sizes()))
        assert ml.min() > 0


class TestRhs:
    def test_constant_load_total(self):
        mesh = adapted_mesh(seed=6)
        load = OPS.mass(mesh.element_sizes()).sum(axis=2)  # int N_i per elem
        b = assemble_rhs(mesh, load)
        # sum over constrained rhs = integral of 1 (Z^T preserves totals
        # since Z rows sum to 1 and column sums distribute)
        np.testing.assert_allclose(b.sum(), 1.0, rtol=1e-12)

    def test_shape_checks(self):
        mesh = adapted_mesh(seed=6)
        with pytest.raises(ValueError):
            assemble_rhs(mesh, np.zeros((3, 8)))
        with pytest.raises(ValueError):
            assemble_scalar(mesh, np.zeros((3, 8, 8)))


class TestDirichletHelper:
    def test_values_and_symmetry(self):
        mesh = extract_mesh(Forest.uniform(unit_cube(), 1))
        K = assemble_scalar(mesh, OPS.stiffness(mesh.element_sizes()))
        b = np.zeros(mesh.n_independent)
        dofs = np.array([0, 5])
        K2, b2 = apply_dirichlet(K, b, dofs, np.array([1.0, 2.0]))
        assert (abs(K2 - K2.T) > 1e-14).nnz == 0
        x = spla.spsolve(K2.tocsc(), b2)
        assert x[0] == pytest.approx(1.0)
        assert x[5] == pytest.approx(2.0)

    def test_boolean_mask_accepted(self):
        mesh = extract_mesh(Forest.uniform(unit_cube(), 1))
        K = assemble_scalar(mesh, OPS.stiffness(mesh.element_sizes()))
        mask = np.zeros(mesh.n_independent, dtype=bool)
        mask[3] = True
        K2, _ = apply_dirichlet(K, None, mask)
        assert K2[3, 3] == 1.0


# -- the Galerkin product against the COO path it replaced -----------------------


def hanging_mesh(domain=(1.0, 1.0, 1.0)):
    """A corner-balanced mesh with edge and face hanging nodes."""
    from .test_incremental_cycle import hanging_kinds
    from .test_octree_balance import center_refined_tree

    mesh = extract_mesh(center_refined_tree(3).balance("corner")[0], domain)
    assert hanging_kinds(mesh) == {2, 4}
    return mesh


def assert_same_operator(got, want, rtol=1e-14):
    """``got`` is canonical CSR (sorted indices, no duplicates, no
    explicit zeros), its entries are within ``rtol`` of ``want``'s,
    relative to the largest entry of their row (an entry can be a
    cancelling sum of larger ones), and both have the same pattern once
    entries below that bound are dropped: a sum that is zero in exact
    arithmetic comes out as 0 or as roundoff depending on the order."""
    want = sp.csr_matrix(want)
    want.sum_duplicates()
    assert got.shape == want.shape
    assert got.has_canonical_format and np.all(got.data != 0)
    bound = rtol * abs(want).max(axis=1).toarray()
    assert np.all(abs(got - want).toarray() <= bound)

    def pattern(A):
        A = sp.csr_matrix(A.multiply(abs(A).toarray() > bound))
        A.eliminate_zeros()
        A.sort_indices()
        return A.indptr, A.indices

    for g, w in zip(pattern(got), pattern(want)):
        np.testing.assert_array_equal(g, w)


class TestGalerkinParity:
    """``G^T blkdiag(A_e) G`` == the COO scatter + ``Z^T A Z`` of
    ``tests/oracles/assembly.py`` on a mesh with edge and face hanging
    nodes."""

    @pytest.mark.parametrize("constrain", [True, False])
    def test_scalar(self, constrain):
        mesh = hanging_mesh((2.0, 1.0, 0.5))
        rng = np.random.default_rng(0)
        eta = 10.0 ** rng.uniform(-3, 3, mesh.n_elements)
        sizes = mesh.element_sizes()
        for elem in [
            rng.standard_normal((mesh.n_elements, 8, 8)),
            OPS.stiffness(sizes, eta),
            OPS.mass(sizes),
        ]:
            got = assemble_scalar(mesh, elem, constrain=constrain)
            want = coo_scalar(mesh, elem, constrain=constrain)
            want.eliminate_zeros()
            assert got.nnz == want.nnz
            assert_same_operator(got, want)

    def test_vector(self):
        mesh = hanging_mesh()
        rng = np.random.default_rng(1)
        eta = 10.0 ** rng.uniform(-3, 3, mesh.n_elements)
        for elem in [
            rng.standard_normal((mesh.n_elements, 24, 24)),
            OPS.strain_stiffness(mesh.element_sizes(), eta),
        ]:
            got, want = assemble_vector(mesh, elem), coo_vector(mesh, elem)
            assert got.nnz == want.nnz
            assert_same_operator(got, want)

    def test_divergence(self):
        mesh = hanging_mesh()
        rng = np.random.default_rng(2)
        for elem in [
            rng.standard_normal((mesh.n_elements, 8, 24)),
            OPS.divergence(mesh.element_sizes()),
        ]:
            assert_same_operator(
                assemble_divergence(mesh, elem), coo_divergence(mesh, elem)
            )

    @pytest.mark.parametrize("bc", ["free_slip", "no_slip"])
    def test_gmg_level(self, bc):
        """The stacked level operator masks each component's Dirichlet
        dofs entry by entry; the oracle multiplies ``D K D``."""
        from repro.solvers.gmg import StackedPoissonLevel, _block_diag_csr

        from .oracles.assembly import poisson_blocks_dkd

        mesh = hanging_mesh()
        eta = 10.0 ** np.random.default_rng(3).uniform(-3, 3, mesh.n_elements)
        got = StackedPoissonLevel(mesh, eta, bc).A
        want = _block_diag_csr(poisson_blocks_dkd(mesh, eta, bc))
        assert got.nnz == want.nnz
        assert_same_operator(got, want)

    def test_dirichlet_without_diagonal(self):
        """A constrained dof whose diagonal is not stored still gets its
        unit row."""
        A = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 4.0]]))
        A2, b2 = apply_dirichlet(A, np.array([1.0, 1.0]), np.array([0]), 5.0)
        np.testing.assert_array_equal(A2.toarray(), [[1.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(b2, [5.0, -14.0])
