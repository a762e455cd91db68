"""Geometric multigrid: hierarchy, transfers, assembled level operators,
smoother, V-cycle, and the GMG Stokes block preconditioner.

The load-bearing invariants pinned here:

- the coarsened forest yields *nested* FE spaces (every fine element has
  exactly one coarse ancestor-or-self; constant fields survive the
  viscosity averaging exactly),
- trilinear prolongation is the exact subspace embedding (identity at
  coincident nodes, exact on globally linear fields),
- every assembled level matrix and its diagonal match the matrix-free
  apply and closed-form diagonal of ``tests/oracles/gmg_levels.py``, and
  the stacked V-cycle matches that oracle's three per-component cycles,
- one V-cycle is an SPD operator (so MINRES accepts it), and on a
  ``(3n, nb)`` block it is that operator on every column,
- the full preconditioner solves Stokes to the same answer as the AMG
  oracle (``tests/oracles/amg_block.py``) with a comparable iteration
  count, a mesh-independent one on
  uniform refinement, and exactly one assembly per level per build, and
- the whole solve is bitwise identical across rank counts and SPMD
  backends under ``REPRO_SANITIZE=1``.
"""

import hashlib

import numpy as np
import pytest

from repro.fem import StokesSystem, assembly_counts, reset_assembly_counts
from repro.fem.stokes import velocity_bcs
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.mesh.opcache import operator_cache
from repro.octree import ROOT_LEN
from repro.solvers import (
    ChebyshevSmoother,
    GeometricMultigrid,
    GMGStokesPreconditioner,
    LaggedStokesPreconditioner,
    StackedPoissonLevel,
    coarse_viscosities,
    gmg,
    mesh_hierarchy,
    minres,
    prolongation,
)
from repro.solvers.gmg import CHEB_LMIN_RATIO, masked_transfers

from .oracles.amg_block import StokesBlockPreconditioner
from .oracles.gmg_levels import MatFreeScalarPoisson, loop_vcycle
from .oracles.stokes_blocks import project_pressure_mean


@pytest.fixture
def max_coarse(monkeypatch):
    """Set ``gmg.MAX_COARSE`` for one test, so small meshes get three
    levels (the hierarchy cache key carries the limit: no hierarchy
    cached under another one is read)."""
    return lambda n: monkeypatch.setattr(gmg, "MAX_COARSE", n)


def _mesh(level=2, frac=0.25, seed=0):
    """A hanging-node test mesh: uniform base + random refinement."""
    tree = Forest.uniform(unit_cube(), level)
    if frac:
        rng = np.random.default_rng(seed)
        tree = tree.refine(rng.random(len(tree)) < frac)
        tree = tree.balance("corner")[0]
    return extract_mesh(tree, (1.0, 1.0, 1.0))


def _graded_mesh():
    """Three levels of refinement towards the top: 264 hanging nodes."""
    tree = Forest.uniform(unit_cube(), 2)
    for cut in (0.5, 0.75):
        lv = tree.octs
        tree = tree.refine((lv.z + lv.lengths() // 2) / ROOT_LEN > cut)
        tree = tree.balance("corner")[0]
    mesh = extract_mesh(tree, (1.0, 1.0, 1.0))
    assert mesh.hanging.sum() == 264
    return mesh


def _problem(mesh, contrast=1e4):
    """Smooth high-contrast viscosity blob + a divergence-free-ish load."""
    c = mesh.node_coords()[mesh.element_nodes].mean(axis=1)
    r2 = ((c - 0.5) ** 2).sum(axis=1)
    eta = np.exp(np.log(contrast) * np.exp(-r2 / 0.08))
    xyz = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * xyz[:, 0]) * np.cos(np.pi * xyz[:, 2])
    return eta, bf


def _hanging_hierarchy(contrast=1e6):
    """The mesh levels and per-level viscosities of a hanging-node mesh
    at high contrast (what every level-operator test runs on)."""
    mesh = _mesh(level=2, frac=0.25, seed=1)
    eta, _ = _problem(mesh, contrast=contrast)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gmg, "MAX_COARSE", 30)
        hier = mesh_hierarchy(mesh)
    assert len(hier.meshes) >= 3 and all(m.hanging.any() for m in hier.meshes[:2])
    return hier.meshes, coarse_viscosities(hier, eta)


class TestHierarchy:
    def test_levels_shrink_and_nest(self, max_coarse):
        max_coarse(30)
        mesh = _mesh(level=2, frac=0.3)
        hier = mesh_hierarchy(mesh)
        sizes = [m.n_independent for m in hier.meshes]
        assert len(sizes) >= 3
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        # nestedness: the mapped coarse element geometrically contains
        # the fine element (anchor and far corner both inside)
        for lvl, emap in enumerate(hier.elem_maps):
            lf = hier.meshes[lvl].leaves
            lc = hier.meshes[lvl + 1].leaves
            hf, hc = lf.lengths(), lc.lengths()[emap]
            for f, c in ((lf.x, lc.x[emap]), (lf.y, lc.y[emap]), (lf.z, lc.z[emap])):
                assert np.all(f >= c)
                assert np.all(f + hf <= c + hc)

    def test_constant_viscosity_preserved(self, max_coarse):
        max_coarse(30)
        mesh = _mesh()
        hier = mesh_hierarchy(mesh)
        etas = coarse_viscosities(hier, np.full(mesh.n_elements, 3.5))
        for e, m in zip(etas, hier.meshes):
            assert e.shape == (m.n_elements,)
            assert np.array_equal(e, np.full(m.n_elements, 3.5))

    def test_cached_per_mesh(self):
        """The coarse levels and element maps are cached per mesh; the
        fine mesh is put in front of them per call, so the cached value
        does not hold the mesh that owns the cache."""
        mesh = _mesh()
        a, b = mesh_hierarchy(mesh), mesh_hierarchy(mesh)
        assert a.meshes[0] is b.meshes[0] is mesh
        assert len(a.meshes) >= 2
        assert all(x is y for x, y in zip(a.meshes[1:], b.meshes[1:]))
        assert all(x is y for x, y in zip(a.elem_maps, b.elem_maps))
        coarse, elem_maps = operator_cache(mesh).store[("gmg_hierarchy", 80)]
        assert all(m is c for m, c in zip(a.meshes[1:], coarse))
        assert all(c is not mesh for c in coarse)

    def test_requires_tree(self):
        mesh = _mesh(level=1, frac=0.0)
        object.__setattr__(mesh, "tree", None)
        with pytest.raises(ValueError, match="mesh.tree"):
            mesh_hierarchy(mesh)


class TestProlongation:
    @pytest.mark.parametrize("frac", [0.0, 0.35])
    def test_linear_fields_exact(self, frac, max_coarse):
        max_coarse(30)
        mesh = _mesh(level=2, frac=frac, seed=3)
        hier = mesh_hierarchy(mesh)
        mf, mc = hier.meshes[0], hier.meshes[1]
        P = prolongation(mf, mc)

        def lin(m):
            x = m.node_coords()[m.indep_nodes]
            return 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5 * x[:, 2]

        assert np.max(np.abs(P @ lin(mc) - lin(mf))) < 1e-13

    @pytest.mark.parametrize("frac", [0.0, 0.35])
    def test_identity_at_coincident_nodes(self, frac, max_coarse):
        max_coarse(30)
        # coarse independent nodes are fine independent nodes, and the
        # embedding restricted to them is exactly the identity
        mesh = _mesh(level=2, frac=frac, seed=4)
        hier = mesh_hierarchy(mesh)
        mf, mc = hier.meshes[0], hier.meshes[1]
        P = prolongation(mf, mc)
        fpos = {
            tuple(c): i
            for i, c in enumerate(mf.node_coords_int[mf.indep_nodes].tolist())
        }
        idx = np.array(
            [fpos[tuple(c)] for c in mc.node_coords_int[mc.indep_nodes].tolist()]
        )
        rng = np.random.default_rng(0)
        uc = rng.standard_normal(mc.n_independent)
        uf = P @ uc
        assert np.array_equal(uf[idx], uc)
        # restriction round-trip through the injection is also exact
        assert np.array_equal((P.T @ uf)[np.argsort(idx)].shape, uc.shape)


class TestMatFreeOperator:
    """The assembled level operator against the matrix-free oracle."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_apply_matches_assembled(self, axis):
        for bc_kind in ("free_slip", "no_slip"):
            for m, eta in zip(*_hanging_hierarchy()):
                op = StackedPoissonLevel(m, eta, bc_kind)
                ref = MatFreeScalarPoisson(
                    m, eta, velocity_bcs(m, bc_kind).per_component[axis]
                )
                n = m.n_independent
                x = np.zeros(3 * n)
                x[axis * n : (axis + 1) * n] = np.random.default_rng(axis).standard_normal(n)
                y = op.apply(x)
                want = ref.apply(x[axis * n : (axis + 1) * n])
                assert np.max(np.abs(y[axis * n : (axis + 1) * n] - want)) < (
                    1e-12 * np.max(np.abs(want))
                )
                # block diagonal: nothing leaks into the other components
                y[axis * n : (axis + 1) * n] = 0.0
                assert not y.any()

    def test_diagonal_exact(self):
        for bc_kind in ("free_slip", "no_slip"):
            for m, eta in zip(*_hanging_hierarchy()):
                op = StackedPoissonLevel(m, eta, bc_kind)
                assert np.array_equal(op.diagonal(), op.A.diagonal())
                ref = np.concatenate(
                    [
                        MatFreeScalarPoisson(m, eta, dofs).diagonal()
                        for dofs in velocity_bcs(m, bc_kind).per_component
                    ]
                )
                assert np.max(np.abs(op.diagonal() - ref)) < 1e-12 * np.max(ref)

    @pytest.mark.parametrize("bc_kind", ["free_slip", "no_slip"])
    def test_stacked_vcycle_matches_component_loop(self, bc_kind, max_coarse):
        max_coarse(30)
        mesh = _mesh(level=2, frac=0.25, seed=1)
        eta, bf = _problem(mesh, contrast=1e6)
        st = StokesSystem(mesh, eta, bf, bc=bc_kind)
        prec = GMGStokesPreconditioner(st)
        assert len(prec.gmg.levels) >= 3
        r = np.random.default_rng(5).standard_normal(3 * mesh.n_independent)
        z = prec.gmg.vcycle(r)
        z_ref = loop_vcycle(mesh, eta, bc_kind, r)
        assert np.max(np.abs(z - z_ref)) < 1e-12 * np.max(np.abs(z_ref))

    def test_viscosity_update_reweights(self):
        mesh = _mesh(level=1, frac=0.5, seed=2)
        eta, _ = _problem(mesh)
        op = StackedPoissonLevel(mesh, np.ones(mesh.n_elements), "no_slip")
        op.update_viscosity(eta)
        fresh = StackedPoissonLevel(mesh, eta, "no_slip")
        x = np.linspace(-1, 1, op.n)
        assert np.array_equal(op.apply(x), fresh.apply(x))
        assert np.array_equal(op.diagonal(), fresh.diagonal())


class TestChebyshev:
    def test_eigenvalue_bounds(self):
        mesh = _mesh(level=1, frac=0.5, seed=5)
        eta, _ = _problem(mesh, contrast=1e2)
        op = StackedPoissonLevel(mesh, eta, "free_slip")
        sm = ChebyshevSmoother(op)
        n = mesh.n_independent
        M = (op.A.multiply(1.0 / op.diagonal()[:, None])).toarray()
        assert sm.lmax.shape == (3,)
        for a in range(3):
            blk = slice(a * n, (a + 1) * n)
            lam = np.linalg.eigvals(M[blk, blk]).real.max()
            assert 0.95 * lam <= sm.lmax[a] <= 2.0 * lam
        assert np.allclose(sm.lmin, sm.lmax / CHEB_LMIN_RATIO)
        # free-slip constrains a different face pair per component
        assert len(set(sm.lmax)) == 3

    def test_smoother_reduces_residual(self):
        mesh = _mesh(level=1, frac=0.5, seed=5)
        eta, _ = _problem(mesh)
        op = StackedPoissonLevel(mesh, eta, "free_slip")
        sm = ChebyshevSmoother(op)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.n)
        x = sm.apply(b)
        assert np.linalg.norm(b - op.apply(x)) < np.linalg.norm(b)


class TestVcycleSPD:
    def test_vcycle_is_spd(self, max_coarse):
        max_coarse(20)
        mesh = _mesh(level=1, frac=0.6, seed=6)
        eta, bf = _problem(mesh, contrast=1e3)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        prec = GMGStokesPreconditioner(st)
        g = prec.gmg
        assert len(g.levels) >= 2
        n = g.levels[0].op.n
        M = np.stack([g.vcycle(e) for e in np.eye(n)], axis=1)
        sym = np.max(np.abs(M - M.T)) / np.max(np.abs(M))
        assert sym < 1e-12
        w = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert w.min() > 0

    def test_stored_restriction_matches_per_call_transpose(self, max_coarse):
        """The cycle restricts through the CSR ``R`` stored next to the
        masked prolongation; the reference below takes ``P.T`` per call
        (summation order may differ)."""
        max_coarse(20)
        mesh = _mesh(level=2, frac=0.3, seed=4)
        eta, bf = _problem(mesh, contrast=1e3)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        g = GMGStokesPreconditioner(st).gmg
        assert len(g.levels) >= 3

        def cycle_ref(k, b):
            if k == len(g.levels) - 1:
                return (g._coarse_inv @ b.reshape(3, -1, 1)).ravel()
            lvl, P = g.levels[k], g.levels[k + 1].P
            x = lvl.smoother.apply(b)
            x = x + P @ cycle_ref(k + 1, P.T @ (b - lvl.op.apply(x)))
            return x + lvl.smoother.apply(b - lvl.op.apply(x))

        for lvl in g.levels[1:]:
            assert lvl.R.format == "csr" and (lvl.R != lvl.P.T).nnz == 0
        b = np.sin(np.arange(g.levels[0].op.n))
        z, z_ref = g.vcycle(b), cycle_ref(0, b)
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))

    def test_transfers_cached_per_mesh_and_bc(self, max_coarse):
        max_coarse(20)
        mesh = _mesh(level=2, frac=0.3, seed=4)
        eta, bf = _problem(mesh)
        hier = mesh_hierarchy(mesh)
        fs = GMGStokesPreconditioner(StokesSystem(mesh, eta, bf, bc="free_slip"))
        again = GMGStokesPreconditioner(StokesSystem(mesh, 2.0 * eta, bf, bc="free_slip"))
        ns = GMGStokesPreconditioner(StokesSystem(mesh, eta, bf, bc="no_slip"))
        assert fs.gmg.levels[1].P is again.gmg.levels[1].P
        assert fs.gmg.levels[1].R is masked_transfers(*hier.meshes[:2], "free_slip")[1]
        assert ns.gmg.levels[1].P.nnz < fs.gmg.levels[1].P.nnz


class TestBlockVcycle:
    """The V-cycle on a ``(3n, nb)`` block (the fleet's batch axis) is
    the V-cycle of each column."""

    @pytest.mark.parametrize("bc_kind", ["free_slip", "no_slip"])
    def test_block_is_columnwise_and_spd(self, bc_kind):
        mesh = _graded_mesh()
        g = GeometricMultigrid(mesh, _problem(mesh, contrast=1e4)[0], bc_kind)
        assert len(g.levels) >= 3
        rng = np.random.default_rng(11)
        X, Y = rng.standard_normal((2, 3 * mesh.n_independent, 7))
        VX, VY = g.vcycle(X), g.vcycle(Y)
        assert VX.shape == X.shape
        for B, VB in ((X[:, :1], g.vcycle(X[:, :1])), (X, VX)):  # nb = 1, 7
            for j in range(B.shape[1]):
                vj = g.vcycle(B[:, j])
                assert np.max(np.abs(VB[:, j] - vj)) <= 1e-13 * np.max(np.abs(vj))
        xvy, vxy = np.einsum("ij,ij->j", X, VY), np.einsum("ij,ij->j", VX, Y)
        assert np.all(np.abs(xvy - vxy) <= 1e-12 * np.abs(xvy).max())
        assert np.all(np.einsum("ij,ij->j", X, VX) > 0)

    def test_vector_input_keeps_its_bits(self):
        """A ``(3n,)`` residual goes through the arithmetic it went
        through before the cycle took blocks (the coarse solve written
        for a vector, no broadcast axes in the smoother)."""
        mesh = _graded_mesh()
        g = GeometricMultigrid(mesh, _problem(mesh, contrast=1e4)[0], "free_slip")

        def cycle_ref(k, b):
            if k == len(g.levels) - 1:
                return (g._coarse_inv @ b.reshape(3, -1, 1)).ravel()
            lvl, up = g.levels[k], g.levels[k + 1]
            x = lvl.smoother.apply(b)
            x = x + up.P @ cycle_ref(k + 1, up.R @ (b - lvl.op.apply(x)))
            return x + lvl.smoother.apply(b - lvl.op.apply(x))

        b = np.cos(np.arange(3 * mesh.n_independent))
        assert np.array_equal(g.vcycle(b), cycle_ref(0, b))

    def test_single_level_is_the_dense_inverse(self):
        mesh = _mesh(level=1, frac=0.0)  # 27 nodes <= MAX_COARSE
        eta, _ = _problem(mesh, contrast=1e2)
        g = GeometricMultigrid(mesh, eta, "free_slip")
        assert len(g.levels) == 1 and g.levels[0].smoother is None
        B = np.random.default_rng(12).standard_normal((3 * mesh.n_independent, 5))
        want = np.linalg.pinv(g.levels[0].op.A.toarray(), hermitian=True) @ B
        for got in (g.vcycle(B), np.stack([g.vcycle(b) for b in B.T], axis=1)):
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestStokesPreconditioner:
    def test_matches_amg_solution(self):
        mesh = _mesh(level=2, frac=0.25, seed=0)
        eta, bf = _problem(mesh, contrast=1e4)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        amg = StokesBlockPreconditioner(st)
        gmg = GMGStokesPreconditioner(st)
        ra = minres(st.matvec, st.rhs(), M=amg.apply, tol=1e-8, maxiter=600)
        rg = minres(st.matvec, st.rhs(), M=gmg.apply, tol=1e-8, maxiter=600)
        assert ra.converged and rg.converged
        xa = project_pressure_mean(st, ra.x)
        xg = project_pressure_mean(st, rg.x)
        rel = np.linalg.norm(xg - xa) / np.linalg.norm(xa)
        assert rel < 1e-6
        assert rg.iterations <= 1.5 * ra.iterations

    def test_one_assembly_per_level_per_build(self):
        # a build and a viscosity update each assemble every level
        # exactly once (one stiffness serves the three components), and
        # a solve assembles nothing
        mesh = _mesh(level=2, frac=0.25, seed=7)
        eta, bf = _problem(mesh)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        reset_assembly_counts()
        prec = GMGStokesPreconditioner(st)
        per_build = {"scalar": len(prec.gmg.levels), "vector": 0, "divergence": 0}
        assert len(prec.gmg.levels) >= 2
        assert assembly_counts() == per_build
        res = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-6, maxiter=400)
        assert res.converged
        assert assembly_counts() == per_build
        reset_assembly_counts()
        prec.update_viscosity(2.0 * eta)
        assert assembly_counts() == per_build

    def test_iterations_independent_of_mesh_size(self):
        """Multigrid is still multigrid: on the isoviscous unit cube the
        MINRES count does not grow from uniform level 3 to 4, and one
        graded mesh (three levels of refinement towards the top, 264
        hanging nodes) stays in the same range.  Pinned as exact counts,
        so a level operator or transfer that stops matching its mesh
        fails here instead of costing iterations."""

        def iterations(mesh):
            _, bf = _problem(mesh)
            st = StokesSystem(mesh, np.ones(mesh.n_elements), bf, bc="free_slip")
            prec = GMGStokesPreconditioner(st)
            assert len(prec.gmg.levels) >= 3
            res = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-6, maxiter=100)
            assert res.converged
            return res.iterations

        it3 = iterations(_mesh(level=3, frac=0.0))
        it4 = iterations(_mesh(level=4, frac=0.0))
        assert (it3, it4, iterations(_graded_mesh())) == (22, 19, 30)
        assert it4 <= it3 + 2

    def test_update_viscosity_matches_fresh_build(self):
        mesh = _mesh(level=1, frac=0.5, seed=8)
        eta1, bf = _problem(mesh, contrast=1e2)
        eta2, _ = _problem(mesh, contrast=1e4)
        st1 = StokesSystem(mesh, eta1, bf, bc="free_slip")
        st2 = StokesSystem(mesh, eta2, bf, bc="free_slip")
        prec = GMGStokesPreconditioner(st1)
        prec.update_viscosity(eta2)
        prec.refresh_schur(st2)
        fresh = GMGStokesPreconditioner(st2)
        r = np.linspace(-1, 1, st2.n_dof)
        assert np.array_equal(prec.apply(r), fresh.apply(r))


class TestLaggedGMG:
    def test_reuse_and_invalidate(self, max_coarse):
        max_coarse(20)
        mesh = _mesh(level=1, frac=0.5, seed=10)
        eta, bf = _problem(mesh)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        lag = LaggedStokesPreconditioner(rtol=0.5)
        p1 = lag.get(st)
        assert isinstance(p1, GMGStokesPreconditioner)
        assert lag.get(st) is p1
        assert (lag.n_builds, lag.n_reuses) == (1, 1)
        # drift beyond rtol rebuilds in place: same mesh, same transfers
        st2 = StokesSystem(mesh, eta * 3.0, bf, bc="free_slip")
        P1 = p1.gmg.levels[1].P
        assert lag.get(st2) is p1 and p1.gmg.levels[1].P is P1
        assert (lag.n_builds, lag.n_reuses) == (2, 1)
        r = np.linspace(-1, 1, st2.n_dof)
        fresh = GMGStokesPreconditioner(st2)
        assert np.array_equal(p1.apply(r), fresh.apply(r))
        # another boundary condition or an invalidate builds a new one
        p3 = lag.get(StokesSystem(mesh, eta * 3.0, bf, bc="no_slip"))
        assert p3 is not p1
        lag.invalidate()
        assert lag.get(st2) is not p3
        assert lag.n_builds == 4


# -- cross-rank bitwise equivalence --------------------------------------------


def _state_digest(*arrays) -> str:
    """Order-sensitive bitwise digest of a tuple of arrays."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _gmg_solve_kernel(comm, level, contrast):
    """One GMG-preconditioned Stokes solve per rank (identical problem on
    every rank: the digest must agree across ranks and rank counts)."""
    tree = Forest.uniform(unit_cube(), level)
    rng = np.random.default_rng(42)
    tree = tree.refine(rng.random(len(tree)) < 0.25)
    tree = tree.balance("corner")[0]
    mesh = extract_mesh(tree, (1.0, 1.0, 1.0))
    c = mesh.node_coords()[mesh.element_nodes].mean(axis=1)
    eta = np.exp(np.log(contrast) * np.exp(-((c - 0.5) ** 2).sum(axis=1) / 0.08))
    xyz = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * xyz[:, 0]) * np.cos(np.pi * xyz[:, 2])
    st = StokesSystem(mesh, eta, bf, bc="free_slip")
    prec = GMGStokesPreconditioner(st)
    res = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-7, maxiter=400)
    comm.barrier()
    return _state_digest(np.asarray(res.residuals), res.x)


class TestCrossRankBitwise:
    def test_digest_invariant(self, monkeypatch):
        from repro.parallel import run_spmd

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        digests = set()
        for p in (1, 2, 4):
            digests.update(run_spmd(p, _gmg_solve_kernel, 1, 1e3))
        assert len(digests) == 1


class TestRheaIntegration:
    def test_config_validation(self):
        from repro.rhea import ConfigError, RheaConfig

        for removed in ("ilu", "amg"):
            with pytest.raises(ConfigError, match="stokes_preconditioner"):
                RheaConfig(stokes_preconditioner=removed)

    def test_short_gmg_run_with_adapt(self):
        from repro.rhea import MantleConvection, RheaConfig

        cfg = RheaConfig(
            Ra=1e4,
            initial_level=2,
            min_level=1,
            max_level=3,
            adapt_every=2,
            picard_iterations=2,
            stokes_tol=1e-6,
            stokes_maxiter=400,
            target_elements=100,
        )
        sim = MantleConvection(cfg)
        hist = sim.run(2)
        assert len(hist) == 2
        assert hist[-1].minres_iterations > 0
        assert np.isfinite(hist[-1].vrms)
        assert np.isfinite(hist[-1].mean_T)
