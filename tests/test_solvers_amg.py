"""Tests for smoothed-aggregation AMG."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.fem import StokesSystem, apply_dirichlet, assemble_scalar
from repro.fem.hexops import ElementOps
from repro.fem.stokes import poisson_blocks
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.solvers import SmoothedAggregationAMG, aggregate, strength_graph

from .oracles.aggregation import aggregate_reference
from .oracles.amg_block import StokesBlockPreconditioner
from .oracles.amg_cycle import AMGCycleOracle

OPS = ElementOps()


def with_substitution_sweeps(amg):
    """Swap the factorized Gauss-Seidel solves of ``amg`` for scipy's
    per-call substitution sweep, the reference they must reproduce."""
    for lvl in amg.levels[:-1]:
        lvl.Lsolve = lambda r, L=lvl.L: spla.spsolve_triangular(L, r, lower=True)
        lvl.Usolve = lambda r, U=lvl.U: spla.spsolve_triangular(U, r, lower=False)
    return amg


def laplace_7pt(n, neumann=False):
    """Standard 7-point Laplacian on an n^3 grid (the Fig. 9 reference);
    ``neumann`` gives it natural boundaries: semidefinite, constant null
    vector, no decoupled row."""
    e = np.ones(n)
    d = 2 * e
    if neumann:
        d[0] = d[-1] = 1.0
    T = sp.diags([-e[:-1], d, -e[:-1]], [-1, 0, 1])
    I = sp.identity(n)
    return sp.csr_matrix(
        sp.kron(sp.kron(T, I), I) + sp.kron(sp.kron(I, T), I) + sp.kron(sp.kron(I, I), T)
    )


def poisson_fem(level=3, viscosity_contrast=1.0, seed=0):
    """Variable-coefficient FEM Poisson on an adapted mesh with Dirichlet
    boundary (the actual preconditioner block of the Stokes solver)."""
    rng = np.random.default_rng(seed)
    tree = Forest.uniform(unit_cube(), level)
    tree = tree.refine(rng.random(len(tree)) < 0.2)
    tree = tree.balance("corner")[0]
    mesh = extract_mesh(tree)
    eta = np.exp(rng.uniform(0, np.log(viscosity_contrast + 1e-300), mesh.n_elements)) \
        if viscosity_contrast > 1 else np.ones(mesh.n_elements)
    K = assemble_scalar(mesh, OPS.stiffness(mesh.element_sizes(), eta))
    bdofs = mesh.dof_of_node[np.flatnonzero(mesh.boundary_node_mask())]
    bdofs = np.unique(bdofs[bdofs >= 0])
    K, _ = apply_dirichlet(K, None, bdofs)
    return sp.csr_matrix(K)


def free_slip_blocks(level, contrast=1e3):
    """The three scalar Poisson blocks of a free-slip Stokes system on a
    uniform level-``level`` box (component ``a`` is pinned on its two
    normal faces: identity rows in the block)."""
    mesh = extract_mesh(Forest.uniform(unit_cube(), level))
    c = mesh.element_centers()
    eta = np.exp(np.log(contrast) * np.exp(-((c - 0.5) ** 2).sum(axis=1) / 0.08))
    return [sp.csr_matrix(K) for K in poisson_blocks(mesh, eta, "free_slip")]


class TestStrengthAndAggregation:
    def test_strength_graph_symmetric_no_diag(self):
        A = laplace_7pt(5)
        S = strength_graph(A, 0.1)
        assert (abs(S - S.T)).nnz == 0
        assert S.diagonal().sum() == 0

    def test_aggregate_covers_all_nodes(self):
        A = laplace_7pt(6)
        S = strength_graph(A, 0.1)
        agg, n_agg = aggregate(S)
        assert agg.min() >= 0
        assert agg.max() == n_agg - 1
        assert 1 < n_agg < A.shape[0]

    def test_aggregates_nontrivial_size(self):
        A = laplace_7pt(8)
        agg, n_agg = aggregate(strength_graph(A, 0.1))
        # SA on a 7-pt stencil should coarsen by roughly 8-27x
        assert A.shape[0] / n_agg > 3


class TestHierarchy:
    def test_multiple_levels(self):
        amg = SmoothedAggregationAMG(laplace_7pt(10), max_coarse=30)
        assert amg.n_levels >= 3
        sizes = amg.grid_sizes()
        assert all(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[-1] <= 30 or amg.n_levels == 20

    def test_operator_complexity_bounded(self):
        amg = SmoothedAggregationAMG(laplace_7pt(10))
        assert 1.0 <= amg.operator_complexity < 3.5


class TestVcycle:
    def test_vcycle_is_symmetric_operator(self):
        """Symmetry of the V-cycle (needed for MINRES preconditioning)."""
        A = laplace_7pt(5)
        amg = SmoothedAggregationAMG(A, max_coarse=20)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, A.shape[0]))
        lhs = x @ amg.vcycle(y)
        rhs = y @ amg.vcycle(x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_vcycle_positive_definite(self):
        A = laplace_7pt(4)
        amg = SmoothedAggregationAMG(A, max_coarse=10)
        rng = np.random.default_rng(1)
        for _ in range(5):
            r = rng.standard_normal(A.shape[0])
            assert r @ amg.vcycle(r) > 0

    def test_solve_laplace(self):
        A = laplace_7pt(8)
        amg = SmoothedAggregationAMG(A)
        b = np.ones(A.shape[0])
        x, its, ok = amg.solve(b, tol=1e-8, maxiter=60)
        assert ok
        assert np.linalg.norm(b - A @ x) <= 1e-7 * np.linalg.norm(b)

    def test_convergence_factor_bounded(self):
        """V-cycle iteration count grows slowly (bounded factor) as the
        grid refines — the property behind Fig. 2's flat iteration
        counts."""
        its = []
        for n in (6, 12):
            A = laplace_7pt(n)
            amg = SmoothedAggregationAMG(A)
            _, k, ok = amg.solve(np.ones(A.shape[0]), tol=1e-8, maxiter=100)
            assert ok
            its.append(k)
        assert its[1] <= its[0] + 10

    def test_variable_viscosity_fem_poisson(self):
        """AMG handles the adapted-mesh, 10^4-contrast coefficient Poisson
        block (the hard case the paper highlights)."""
        A = poisson_fem(level=2, viscosity_contrast=1e4, seed=3)
        amg = SmoothedAggregationAMG(A)
        b = np.ones(A.shape[0])
        x, its, ok = amg.solve(b, tol=1e-8, maxiter=100)
        assert ok
        assert its < 60

    def test_zero_rhs(self):
        A = laplace_7pt(4)
        amg = SmoothedAggregationAMG(A)
        x, its, ok = amg.solve(np.zeros(A.shape[0]))
        assert ok and its == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_tiny_matrix_direct(self):
        A = sp.csr_matrix(np.diag([2.0, 3.0]))
        amg = SmoothedAggregationAMG(A, max_coarse=10)
        np.testing.assert_allclose(amg.vcycle(np.array([2.0, 3.0])), [1.0, 1.0])


class TestVectorizedAggregation:
    """The vectorized aggregation (parallel-MIS pass 1, argmax-weight
    pass 2) against the sequential reference."""

    def _valid_partition(self, S, agg, n_agg):
        n = S.shape[0]
        assert agg.shape == (n,)
        assert agg.min() >= 0 and agg.max() == n_agg - 1
        assert len(np.unique(agg)) == n_agg  # no empty aggregates

    @pytest.mark.parametrize("m", [6, 10])
    def test_valid_partition_model_poisson(self, m):
        S = strength_graph(laplace_7pt(m), 0.08)
        agg, n_agg = aggregate(S)
        self._valid_partition(S, agg, n_agg)
        _, n_ref = aggregate_reference(S)
        # quality pin: the vectorized pass must coarsen at least as
        # aggressively as the sequential greedy (fewer, larger aggregates)
        # while keeping aggregates within the sane SA size band
        assert n_agg <= n_ref
        assert S.shape[0] / n_agg >= 3

    def test_valid_partition_random_graphs(self):
        rng = np.random.default_rng(3)
        for n, d in ((100, 4), (700, 8)):
            rows = np.repeat(np.arange(n), d)
            cols = rng.integers(0, n, n * d)
            G = sp.csr_matrix((np.ones(n * d), (rows, cols)), shape=(n, n))
            G = sp.csr_matrix(((G + G.T) > 0).astype(float))
            G.setdiag(0)
            G.eliminate_zeros()
            agg, n_agg = aggregate(sp.csr_matrix(G))
            self._valid_partition(G, agg, n_agg)

    def test_empty_graph_all_singletons(self):
        S = sp.csr_matrix((7, 7))
        agg, n_agg = aggregate(S)
        agg_r, n_r = aggregate_reference(S)
        assert n_agg == n_r == 7
        assert np.array_equal(agg, agg_r)

    def test_pass1_roots_have_disjoint_neighborhoods(self):
        """Parallel-MIS roots are pairwise at distance >= 3, so no node is
        claimed by two roots: every aggregate from pass 1 is a star."""
        S = strength_graph(laplace_7pt(8), 0.08)
        agg, n_agg = aggregate(S)
        # every member of an aggregate is the root or adjacent to it:
        # aggregate diameter <= 2 for star-shaped pass-1 aggregates, and
        # pass-2/3 members are adjacent to an assigned member, so every
        # aggregate stays connected in S + I
        for a in range(min(n_agg, 50)):
            members = np.flatnonzero(agg == a)
            sub = S[members][:, members]
            nc = sp.csgraph.connected_components(sub + sp.eye(len(members)))[0]
            assert nc == 1

    def test_pass2_prefers_most_connected_aggregate(self):
        """A straggler with 1 strong link to aggregate A and 2 to
        aggregate B must join B (argmax of strong-connection weight),
        where the sequential reference just took the first hit."""
        # priorities pin roots 0 and 2 in pass 1, giving stars {0, 1}
        # (agg A) and {2, 3, 4} (agg B); node 5 has decided neighbors but
        # no adjacent root, so it survives as a pass-2 straggler with one
        # link into A (via 1) and two into B (via 3, 4)
        edges = [(0, 1), (2, 3), (2, 4), (5, 1), (5, 3), (5, 4)]
        rows = [e[0] for e in edges] + [e[1] for e in edges]
        cols = [e[1] for e in edges] + [e[0] for e in edges]
        S = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(6, 6))
        agg, n_agg = aggregate(S, prio=np.array([0.0, 5.0, 1.0, 4.0, 3.0, 2.0]))
        assert n_agg == 2
        assert agg[0] == agg[1]
        assert agg[2] == agg[3] == agg[4]
        assert agg[1] != agg[3]
        assert agg[5] == agg[3]  # argmax weight: B (2 links) over A (1)

    def test_pass2_reference_takes_first_hit(self):
        """Documents the behavior the argmax pass 2 replaces: the
        sequential reference attaches a straggler to the aggregate of its
        first assigned neighbor regardless of connection weight."""
        edges = [(0, 1), (2, 3), (2, 4), (5, 1), (5, 3), (5, 4)]
        rows = [e[0] for e in edges] + [e[1] for e in edges]
        cols = [e[1] for e in edges] + [e[0] for e in edges]
        S = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(6, 6))
        agg, n_agg = aggregate_reference(S)
        assert agg[5] == agg[1]  # first hit, despite 2 links into B

    def test_smoother_paths_agree(self):
        """Factorized triangular solves must reproduce the per-sweep
        spsolve_triangular smoother to solver accuracy."""
        A = laplace_7pt(6)
        b = np.sin(np.arange(A.shape[0]))
        z_fast = SmoothedAggregationAMG(A).vcycle(b)
        z_slow = with_substitution_sweeps(SmoothedAggregationAMG(A)).vcycle(b)
        np.testing.assert_allclose(z_fast, z_slow, rtol=1e-10, atol=1e-12)


class TestDecoupledRows:
    """Dirichlet identity rows stay out of the hierarchy: the cycle is
    ``diag(D_fixed^-1, V_free)`` with ``V_free`` the parent's cycle
    (``tests/oracles/amg_cycle.py``) on the free block."""

    def _scaled_block(self):
        """A level-2 free-slip block whose Dirichlet rows carry a
        non-unit diagonal (so the division is visible)."""
        A = free_slip_blocks(2)[2].tolil()
        amg = SmoothedAggregationAMG(sp.csr_matrix(A))
        assert amg.n_decoupled == 50 and len(amg.free) == 75
        for k, i in enumerate(amg.fixed):
            A[i, i] = 1.5 + 0.25 * k
        return sp.csr_matrix(A)

    def test_fixed_rows_are_one_exact_division(self):
        A = self._scaled_block()
        amg = SmoothedAggregationAMG(A)
        b = np.cos(np.arange(A.shape[0]))
        d = A.diagonal()
        np.testing.assert_array_equal(
            amg.vcycle(b)[amg.fixed], b[amg.fixed] / d[amg.fixed]
        )

    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_free_rows_match_oracle_on_free_block(self, sweeps):
        A = self._scaled_block()
        amg = SmoothedAggregationAMG(A, presmooth=sweeps, postsmooth=sweeps)
        assert amg.n_levels == 2  # 75 free dofs: one real coarsening
        free = amg.free
        oracle = AMGCycleOracle(A[free][:, free], presmooth=sweeps, postsmooth=sweeps)
        assert oracle.grid_sizes() == amg.grid_sizes()
        b = np.sin(np.arange(A.shape[0]))
        z, z_ref = amg.vcycle(b)[free], oracle.vcycle(b[free])
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))

    def test_cycle_is_spd_on_free_slip_block(self):
        A = free_slip_blocks(2)[0]
        amg = SmoothedAggregationAMG(A)
        M = amg.vcycle(np.eye(A.shape[0]))
        assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0

    def test_block_rhs_equals_columns(self):
        A = self._scaled_block()
        amg = SmoothedAggregationAMG(A)
        B = np.random.default_rng(2).standard_normal((A.shape[0], 5))
        Z = amg.vcycle(B)
        assert Z.shape == B.shape
        for j in range(B.shape[1]):
            np.testing.assert_allclose(
                Z[:, j], amg.vcycle(B[:, j].copy()), rtol=1e-13, atol=1e-15
            )

    def test_level4_box_coarsens_to_max_coarse(self):
        """The regression: identity rows were pass-3 singletons on every
        level, so the hierarchy bottomed out at their count, far above
        ``max_coarse``, and paid a dense SVD of that size per build."""
        blocks = free_slip_blocks(4, contrast=1.0)
        for A in blocks:
            amg = SmoothedAggregationAMG(A)
            assert amg.n_decoupled == 2 * 17 * 17
            assert amg.grid_sizes()[0] == A.shape[0] - amg.n_decoupled
            assert amg.grid_sizes()[-1] <= 64
            assert amg.n_levels <= 5
            assert amg._coarse_inv.shape[0] <= 64
        stalled = AMGCycleOracle(blocks[0])
        assert stalled.grid_sizes()[-1] > 2 * 17 * 17  # the parent's floor

    def test_legacy_smoother_same_cycle_with_decoupled_rows(self):
        A = self._scaled_block()
        b = np.sin(np.arange(A.shape[0]))
        slow = with_substitution_sweeps(SmoothedAggregationAMG(A, presmooth=2))
        z_fast = SmoothedAggregationAMG(A, presmooth=2).vcycle(b)
        np.testing.assert_allclose(z_fast, slow.vcycle(b), rtol=1e-10, atol=1e-12)

    def test_solve_uses_the_full_operator(self):
        A = self._scaled_block()
        amg = SmoothedAggregationAMG(A)
        b = np.ones(A.shape[0])
        x, its, ok = amg.solve(b, tol=1e-10)
        assert ok and its < 30
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


class TestEdgeCases:
    def test_no_decoupled_row_semidefinite(self):
        """Pure Neumann: nothing to split off, the singular coarse
        operator goes through the symmetric pinv."""
        A = laplace_7pt(6, neumann=True)
        amg = SmoothedAggregationAMG(A, max_coarse=30)
        assert amg.n_decoupled == 0 and amg.grid_sizes()[0] == A.shape[0]
        assert amg.n_levels >= 2
        b = np.sin(np.arange(A.shape[0]))
        b -= b.mean()  # compatible right-hand side
        x, its, ok = amg.solve(b, tol=1e-8, maxiter=60)
        assert ok and np.all(np.isfinite(x))

    def test_all_rows_decoupled(self):
        d = np.array([2.0, -4.0, 0.5])
        amg = SmoothedAggregationAMG(sp.csr_matrix(np.diag(d)))
        assert amg.n_decoupled == 3
        assert amg.n_levels == 0 and amg.grid_sizes() == []
        assert amg.operator_complexity == 1.0
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(amg.vcycle(b), b / d)
        B = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(amg.vcycle(B), B / d[:, None])
        x, its, ok = amg.solve(b)
        assert ok and its == 1

    def test_free_block_within_max_coarse_is_dense_only(self):
        A = free_slip_blocks(1)[1]  # 27 dofs, 9 of them free
        amg = SmoothedAggregationAMG(A)
        assert amg.n_decoupled == 18 and amg.grid_sizes() == [9]
        assert amg.levels[0].Lsolve is None and amg.levels[0].R is None
        b = np.arange(1.0, 28.0)
        np.testing.assert_allclose(A @ amg.vcycle(b), b, rtol=1e-10)

    def test_zero_diagonal_isolated_row_stays_free(self):
        """A row of zeros is not divided by: it stays in the free block
        and the dense pinv maps it to zero, as before the split."""
        A = sp.block_diag(
            [laplace_7pt(2), sp.csr_matrix((1, 1)), sp.identity(2) * 3.0], format="csr"
        )
        amg = SmoothedAggregationAMG(A)
        np.testing.assert_array_equal(amg.fixed, [9, 10])
        assert 8 in amg.free
        with np.errstate(all="raise"):
            z = amg.vcycle(np.ones(11))
        assert np.all(np.isfinite(z)) and z[8] == 0.0
        np.testing.assert_array_equal(z[9:], [1.0 / 3.0, 1.0 / 3.0])

    def test_explicit_zero_couplings_do_not_count(self):
        """Stored zeros (what a masked product can leave behind) are not
        couplings."""
        C = sp.block_diag([sp.identity(1) * 2.0, laplace_7pt(2)], format="coo")
        A = sp.csr_matrix(
            (np.append(C.data, [0.0, 0.0]), (np.append(C.row, [0, 1]), np.append(C.col, [1, 0]))),
            shape=C.shape,
        )
        assert A.nnz == C.nnz + 2  # the zeros are stored
        amg = SmoothedAggregationAMG(A)
        np.testing.assert_array_equal(amg.fixed, [0])


class TestStokesIntegration:
    def test_minres_iterations_pinned(self, monkeypatch):
        """A level-3 yielding Stokes solve (two Picard passes, free slip,
        the AMG block preconditioner built for each pass) took 190 MINRES
        iterations with the hierarchy on the full matrix; the free-block
        hierarchy draws aggregation priorities and the omega estimate
        over a different n, so the count may move, within 3 % (186 when
        this was written).  The driver preconditions with GMG (141 on
        this solve), so the AMG oracle is swapped in for its lagged
        wrapper."""
        from repro.rhea import MantleConvection, RheaConfig, YieldingViscosity

        cfg = RheaConfig(
            viscosity=YieldingViscosity(sigma_y=10.0),
            initial_level=3,
            picard_iterations=2,
            stokes_tol=1e-8,
        )
        sim = MantleConvection(cfg)
        monkeypatch.setattr(sim._prec_lag, "get", StokesBlockPreconditioner)
        stats = sim.solve_stokes()
        assert stats["converged"]
        assert abs(stats["minres_iterations"] - 190) <= 0.03 * 190

    def test_setup_counters_show_the_coarsening(self):
        mesh = extract_mesh(Forest.uniform(unit_cube(), 3))
        st = StokesSystem(mesh, np.ones(mesh.n_elements), np.zeros((mesh.n_nodes, 3)))
        timer = obs.PhaseTimer()
        with obs.attached(timer):
            prec = StokesBlockPreconditioner(st)
        c = timer.records["prec_setup/amg_setup"]["counters"]
        assert c["amg_decoupled_rows"] == 3 * 2 * 81
        assert c["amg_coarse_dofs"] <= 3 * 64
        assert c["amg_levels"] == sum(a.n_levels for a in prec.amg) <= 3 * 4
