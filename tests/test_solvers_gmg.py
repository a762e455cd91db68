"""Matrix-free geometric multigrid: hierarchy, transfers, smoother,
V-cycle, and the GMG Stokes block preconditioner.

The load-bearing invariants pinned here:

- the coarsened forest yields *nested* FE spaces (every fine element has
  exactly one coarse ancestor-or-self; constant fields survive the
  viscosity averaging exactly),
- trilinear prolongation is the exact subspace embedding (identity at
  coincident nodes, exact on globally linear fields),
- the matrix-free level operator and its closed-form diagonal match the
  assembled Dirichlet-constrained scalar Poisson operator,
- one V-cycle is an SPD operator (so MINRES accepts it),
- the full preconditioner solves Stokes to the same answer as the AMG
  path with a comparable iteration count and *zero* sparse assembly, and
- the whole solve is bitwise identical across rank counts and SPMD
  backends under ``REPRO_SANITIZE=1``.
"""

import hashlib

import numpy as np
import pytest

from repro.fem import (
    ElementOps,
    StokesSystem,
    apply_dirichlet,
    assemble_scalar,
    assembly_counts,
    reset_assembly_counts,
)
from repro.mesh import extract_mesh
from repro.octree import LinearOctree, balance
from repro.solvers import (
    ChebyshevSmoother,
    GMGStokesPreconditioner,
    LaggedStokesPreconditioner,
    MatFreeScalarPoisson,
    StokesBlockPreconditioner,
    coarse_viscosities,
    mesh_hierarchy,
    minres,
    prolongation,
)
from repro.solvers.gmg import component_bc_dofs

OPS = ElementOps()


def _mesh(level=2, frac=0.25, seed=0):
    """A hanging-node test mesh: uniform base + random refinement."""
    tree = LinearOctree.uniform(level)
    if frac:
        rng = np.random.default_rng(seed)
        tree = tree.refine(rng.random(len(tree)) < frac)
        tree = balance(tree, "corner").tree
    return extract_mesh(tree, (1.0, 1.0, 1.0))


def _problem(mesh, contrast=1e4):
    """Smooth high-contrast viscosity blob + a divergence-free-ish load."""
    c = mesh.node_coords()[mesh.element_nodes].mean(axis=1)
    r2 = ((c - 0.5) ** 2).sum(axis=1)
    eta = np.exp(np.log(contrast) * np.exp(-r2 / 0.08))
    xyz = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * xyz[:, 0]) * np.cos(np.pi * xyz[:, 2])
    return eta, bf


def _assembled_block(mesh, eta, bc_kind, axis):
    """Reference: the assembled Dirichlet-constrained Poisson block."""
    K = assemble_scalar(mesh, OPS.stiffness(mesh.element_sizes(), eta))
    Ka, _ = apply_dirichlet(K, None, component_bc_dofs(mesh, bc_kind, axis))
    return Ka


class TestHierarchy:
    def test_levels_shrink_and_nest(self):
        mesh = _mesh(level=2, frac=0.3)
        hier = mesh_hierarchy(mesh, max_coarse=30)
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

    def test_constant_viscosity_preserved(self):
        mesh = _mesh()
        hier = mesh_hierarchy(mesh, max_coarse=30)
        etas = coarse_viscosities(hier, np.full(mesh.n_elements, 3.5))
        for e, m in zip(etas, hier.meshes):
            assert e.shape == (m.n_elements,)
            assert np.array_equal(e, np.full(m.n_elements, 3.5))

    def test_cached_per_mesh(self):
        mesh = _mesh()
        assert mesh_hierarchy(mesh) is mesh_hierarchy(mesh)

    def test_requires_tree(self):
        mesh = _mesh(level=1, frac=0.0)
        object.__setattr__(mesh, "tree", None)
        with pytest.raises(ValueError, match="mesh.tree"):
            mesh_hierarchy(mesh)


class TestProlongation:
    @pytest.mark.parametrize("frac", [0.0, 0.35])
    def test_linear_fields_exact(self, frac):
        mesh = _mesh(level=2, frac=frac, seed=3)
        hier = mesh_hierarchy(mesh, max_coarse=30)
        mf, mc = hier.meshes[0], hier.meshes[1]
        P = prolongation(mf, mc)

        def lin(m):
            x = m.node_coords()[m.indep_nodes]
            return 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5 * x[:, 2]

        assert np.max(np.abs(P @ lin(mc) - lin(mf))) < 1e-13

    @pytest.mark.parametrize("frac", [0.0, 0.35])
    def test_identity_at_coincident_nodes(self, frac):
        # coarse independent nodes are fine independent nodes, and the
        # embedding restricted to them is exactly the identity
        mesh = _mesh(level=2, frac=frac, seed=4)
        hier = mesh_hierarchy(mesh, max_coarse=30)
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
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_apply_matches_assembled(self, axis):
        mesh = _mesh(level=2, frac=0.25, seed=1)
        eta, _ = _problem(mesh, contrast=1e4)
        bc_dofs = component_bc_dofs(mesh, "free_slip", axis)
        op = MatFreeScalarPoisson(mesh, eta, bc_dofs)
        Ka = _assembled_block(mesh, eta, "free_slip", axis)
        rng = np.random.default_rng(axis)
        x = rng.standard_normal(mesh.n_independent)
        scale = np.max(np.abs(Ka @ x))
        assert np.max(np.abs(op.apply(x) - Ka @ x)) < 1e-12 * scale

    def test_multicolumn_apply(self):
        mesh = _mesh(level=1, frac=0.5, seed=2)
        eta, _ = _problem(mesh)
        op = MatFreeScalarPoisson(
            mesh, eta, component_bc_dofs(mesh, "free_slip", 0)
        )
        rng = np.random.default_rng(0)
        X = rng.standard_normal((mesh.n_independent, 5))
        cols = np.stack([op.apply(X[:, j]) for j in range(5)], axis=1)
        assert np.array_equal(op.apply(X), cols)

    def test_diagonal_exact(self):
        mesh = _mesh(level=2, frac=0.25, seed=1)
        eta, _ = _problem(mesh, contrast=1e4)
        for axis in range(3):
            op = MatFreeScalarPoisson(
                mesh, eta, component_bc_dofs(mesh, "free_slip", axis)
            )
            ref = _assembled_block(mesh, eta, "free_slip", axis).diagonal()
            assert np.max(np.abs(op.diagonal() - ref)) < 1e-12 * np.max(ref)

    def test_viscosity_update_reweights(self):
        mesh = _mesh(level=1, frac=0.5, seed=2)
        eta, _ = _problem(mesh)
        op = MatFreeScalarPoisson(
            mesh, np.ones(mesh.n_elements), component_bc_dofs(mesh, "no_slip", 0)
        )
        op.update_viscosity(eta)
        fresh = MatFreeScalarPoisson(
            mesh, eta, component_bc_dofs(mesh, "no_slip", 0)
        )
        x = np.linspace(-1, 1, mesh.n_independent)
        assert np.array_equal(op.apply(x), fresh.apply(x))
        assert np.array_equal(op.diagonal(), fresh.diagonal())


class TestChebyshev:
    def test_eigenvalue_bounds(self):
        mesh = _mesh(level=1, frac=0.5, seed=5)
        eta, _ = _problem(mesh, contrast=1e2)
        op = MatFreeScalarPoisson(
            mesh, eta, component_bc_dofs(mesh, "free_slip", 0)
        )
        sm = ChebyshevSmoother(op)
        Ka = _assembled_block(mesh, eta, "free_slip", 0).toarray()
        lam = np.linalg.eigvals(Ka / op.diagonal()[:, None]).real
        assert sm.lmax >= 0.95 * lam.max()
        assert sm.lmax <= 2.0 * lam.max()
        assert sm.lmin == pytest.approx(sm.lmax / sm.lmin_ratio)

    def test_smoother_reduces_residual(self):
        mesh = _mesh(level=1, frac=0.5, seed=5)
        eta, _ = _problem(mesh)
        op = MatFreeScalarPoisson(
            mesh, eta, component_bc_dofs(mesh, "free_slip", 1)
        )
        sm = ChebyshevSmoother(op)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op.n)
        x = sm.apply(b)
        assert np.linalg.norm(b - op.apply(x)) < np.linalg.norm(b)


class TestVcycleSPD:
    def test_vcycle_is_spd(self):
        mesh = _mesh(level=1, frac=0.6, seed=6)
        eta, bf = _problem(mesh, contrast=1e3)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        prec = GMGStokesPreconditioner(st, max_coarse=20)
        g = prec.gmg[0]
        assert g.n_levels >= 2
        n = g.levels[0].op.n
        M = np.stack([g.vcycle(e) for e in np.eye(n)], axis=1)
        sym = np.max(np.abs(M - M.T)) / np.max(np.abs(M))
        assert sym < 1e-12
        w = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert w.min() > 0

    def test_stored_restriction_matches_per_call_transpose(self):
        """The cycle restricts through the CSR ``R`` built next to the
        masked prolongation; the reference below takes ``P.T`` per call,
        as the cycle did before (summation order may differ)."""
        mesh = _mesh(level=2, frac=0.3, seed=4)
        eta, bf = _problem(mesh, contrast=1e3)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        g = GMGStokesPreconditioner(st, max_coarse=20).gmg[2]
        assert g.n_levels >= 3

        def cycle_ref(k, b):
            if k == g.n_levels - 1:
                return g._coarse_inv @ b
            lvl, P = g.levels[k], g.levels[k + 1].P
            x = lvl.smoother.apply(b)
            x = x + P @ cycle_ref(k + 1, P.T @ (b - lvl.op.apply(x)))
            return x + lvl.smoother.apply(b - lvl.op.apply(x))

        for lvl in g.levels[1:]:
            assert lvl.R.format == "csr" and (lvl.R != lvl.P.T).nnz == 0
        b = np.sin(np.arange(g.levels[0].op.n))
        z, z_ref = g.vcycle(b), cycle_ref(0, b)
        assert np.max(np.abs(z - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))


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
        xa = st.project_pressure_mean(ra.x)
        xg = st.project_pressure_mean(rg.x)
        rel = np.linalg.norm(xg - xa) / np.linalg.norm(xa)
        assert rel < 1e-6
        assert rg.iterations <= 1.5 * ra.iterations

    def test_zero_assembly_on_solve(self):
        # the acceptance invariant: the GMG-preconditioned solve performs
        # no sparse assembly at any level (the tensor-variant StokesSystem
        # is already matrix-free; AMG setup is what used to assemble)
        mesh = _mesh(level=2, frac=0.25, seed=7)
        eta, bf = _problem(mesh)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        reset_assembly_counts()
        prec = GMGStokesPreconditioner(st)
        res = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-6, maxiter=400)
        assert res.converged
        assert assembly_counts() == {"scalar": 0, "vector": 0, "divergence": 0}
        # sanity that the counter is live: the AMG path does assemble
        reset_assembly_counts()
        StokesBlockPreconditioner(st)
        assert assembly_counts()["scalar"] > 0

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

    def test_operator_complexity_and_grid_sizes(self):
        mesh = _mesh(level=2, frac=0.2, seed=9)
        eta, bf = _problem(mesh)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        prec = GMGStokesPreconditioner(st, max_coarse=30)
        sizes = prec.grid_sizes()
        assert sizes[0] == mesh.n_independent
        assert 1.0 < prec.operator_complexity < 2.0


class TestLaggedGMG:
    def test_reuse_and_invalidate(self):
        mesh = _mesh(level=1, frac=0.5, seed=10)
        eta, bf = _problem(mesh)
        st = StokesSystem(mesh, eta, bf, bc="free_slip")
        lag = LaggedStokesPreconditioner(rtol=0.5, kind="gmg")
        p1 = lag.get(st)
        assert isinstance(p1, GMGStokesPreconditioner)
        assert lag.get(st) is p1
        assert (lag.n_builds, lag.n_reuses) == (1, 1)
        # drift beyond rtol rebuilds
        st2 = StokesSystem(mesh, eta * 3.0, bf, bc="free_slip")
        p2 = lag.get(st2)
        assert p2 is not p1
        lag.invalidate()
        assert lag.get(st2) is not p2
        assert lag.n_builds == 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            LaggedStokesPreconditioner(kind="ilu")


# -- cross-backend / cross-rank bitwise equivalence -----------------------------


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
    every rank: the digest must agree across ranks, rank counts, and
    backends)."""
    tree = LinearOctree.uniform(level)
    rng = np.random.default_rng(42)
    tree = tree.refine(rng.random(len(tree)) < 0.25)
    tree = balance(tree, "corner").tree
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


class TestCrossBackendBitwise:
    def test_digest_invariant(self, monkeypatch):
        from repro.parallel import run_spmd
        from repro.parallel import procomm

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        digests = set()
        for p in (1, 2, 4):
            digests.update(run_spmd(p, _gmg_solve_kernel, 1, 1e3, backend="thread"))
        if procomm.available():
            for p in (2, 4):
                digests.update(
                    run_spmd(p, _gmg_solve_kernel, 1, 1e3, backend="process")
                )
            procomm.shutdown_pools()
        assert len(digests) == 1


class TestRheaIntegration:
    def test_config_validation(self):
        from repro.rhea import ConfigError, RheaConfig

        with pytest.raises(ConfigError, match="stokes_preconditioner"):
            RheaConfig(stokes_preconditioner="ilu")

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
            stokes_preconditioner="gmg",
        )
        sim = MantleConvection(cfg)
        hist = sim.run(2)
        assert len(hist) == 2
        assert hist[-1].minres_iterations > 0
        assert np.isfinite(hist[-1].vrms)
        assert np.isfinite(hist[-1].mean_T)
