"""Tests for the setup-amortization layer: operator cache, assembly
through the cached element gather, lagged preconditioner and warm
starts."""

import numpy as np
import pytest

from repro.fem import assemble_scalar
from repro.mesh.opcache import (
    cache_disabled,
    cache_stats,
    operator_cache,
    reset_cache_stats,
)
from repro.octree import LinearOctree
from repro.rhea import MantleConvection, RheaConfig


class TestElementGather:
    """Assembly replays the mesh's cached element gather; only the
    element matrices change between calls."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_coo_assembly(self, seed):
        from .oracles.assembly import coo_scalar
        from .test_fem_assembly import adapted_mesh, assert_same_operator

        rng = np.random.default_rng(seed)
        mesh = adapted_mesh(seed)
        for _ in range(3):
            elem = rng.standard_normal((mesh.n_elements, 8, 8))
            assert_same_operator(assemble_scalar(mesh, elem), coo_scalar(mesh, elem))
        assert operator_cache(mesh).misses == 1  # one gather, two replays

    def test_assembly_does_not_mutate_gather(self):
        from .test_fem_assembly import adapted_mesh

        mesh = adapted_mesh(2)
        elem = np.random.default_rng(2).standard_normal((mesh.n_elements, 8, 8))
        A1 = assemble_scalar(mesh, elem)
        g = operator_cache(mesh).store[("gather", "scalar")]
        before = [a.copy() for m in (g.G, g.GT) for a in (m.data, m.indices, m.indptr)]
        # operations that would normally canonicalize or write in place
        _ = A1 @ np.ones(mesh.n_independent)
        _ = A1.T @ A1
        A1.data[:] = 0.0
        A2 = assemble_scalar(mesh, elem)
        after = [a for m in (g.G, g.GT) for a in (m.data, m.indices, m.indptr)]
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        assert np.array_equal(A2.toarray(), assemble_scalar(mesh, elem).toarray())
        assert np.abs(A2).sum() > 0


def _mini_config(**kw):
    base = dict(
        initial_level=2,
        picard_iterations=2,
        adapt_every=1,
        stokes_tol=1e-8,
    )
    base.update(kw)
    return RheaConfig(**base)


def _three_steps(cfg, cold=False):
    """Three (Stokes solve, one advection step) cycles; ``cold`` discards
    the previous solution before every solve, so MINRES starts from zero."""
    sim = MantleConvection(cfg, tree=LinearOctree.uniform(cfg.initial_level))
    iters = 0
    for _ in range(3):
        if cold:
            sim.u = np.zeros_like(sim.u)
            sim._p_prev = None
        stats = sim.solve_stokes()
        iters += stats["minres_iterations"]
        sim.advance_temperature(1)
    return sim, iters


class TestCacheTransparency:
    def test_bitwise_identical_on_off(self):
        """Memoization must never change arithmetic: a 3-step convection
        run with the cache on and off produces bitwise-identical fields.
        (Lag rtol=0.0 reuses the AMG hierarchy only for bitwise-unchanged
        viscosity, which is itself value-transparent.)"""
        on, it_on = _three_steps(_mini_config(prec_lag_rtol=0.0))
        with cache_disabled():
            off, it_off = _three_steps(_mini_config(prec_lag_rtol=0.0))
        assert it_on == it_off
        assert np.array_equal(on.T, off.T)
        assert np.array_equal(on.u, off.u)
        assert on.vrms() == off.vrms()

    def test_cache_counters(self):
        reset_cache_stats()
        sim, _ = _three_steps(_mini_config())
        stats = cache_stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        local = operator_cache(sim.mesh)
        assert local.hits > 0

    def test_disabled_context_bypasses_store(self):
        sim = MantleConvection(_mini_config())
        cache = operator_cache(sim.mesh)
        with cache_disabled():
            val = cache.get("probe", lambda: np.arange(3))
        assert "probe" not in cache.store
        assert np.array_equal(val, np.arange(3))


class TestInvalidation:
    def test_adapt_produces_fresh_cache(self):
        """Structural invalidation: adapt() yields a new mesh object and
        with it an empty cache — nothing survives from the old mesh."""
        cfg = _mini_config(max_level=3, target_elements=100)
        sim = MantleConvection(cfg)
        sim.solve_stokes()
        old_mesh = sim.mesh
        old_cache = operator_cache(old_mesh)
        assert len(old_cache.store) > 0
        sim.adapt()
        assert sim.mesh is not old_mesh
        new_cache = operator_cache(sim.mesh)
        assert new_cache is not old_cache
        assert "Z3" not in new_cache.store  # no Stokes operators carried over
        # a solve on the adapted mesh repopulates with correctly-sized ops
        sim.solve_stokes()
        Z3_old = old_cache.store["Z3"]
        Z3_new = new_cache.store["Z3"]
        assert Z3_new.shape[0] == 3 * sim.mesh.n_nodes
        assert Z3_new.shape != Z3_old.shape

    def test_lagged_prec_rebuilds_after_adapt(self):
        cfg = _mini_config(max_level=3, target_elements=100)
        sim = MantleConvection(cfg)
        sim.solve_stokes()
        builds0 = sim._prec_lag.n_builds
        sim.adapt()
        sim.solve_stokes()
        assert sim._prec_lag.n_builds > builds0


class TestLaggedPreconditioner:
    def test_iterations_within_20_percent_of_rebuild(self):
        """Acceptance bound: lagging the multigrid setup may not inflate MINRES
        iterations by more than 20% over rebuild-every-pass (``rtol=0``
        reuses a hierarchy only for bitwise-unchanged viscosity)."""
        _, it_lag = _three_steps(_mini_config(prec_lag_rtol=0.3))
        _, it_rebuild = _three_steps(_mini_config(prec_lag_rtol=0.0))
        assert it_lag <= 1.2 * it_rebuild

    def test_reuse_happens_between_picard_passes(self):
        sim, _ = _three_steps(_mini_config(prec_lag_rtol=0.5))
        assert sim._prec_lag.n_reuses > 0
        assert sim._prec_lag.n_builds >= 1

    def test_zero_rtol_reuses_only_bitwise_equal_viscosity(self):
        from repro.solvers import LaggedStokesPreconditioner

        lag = LaggedStokesPreconditioner(rtol=0.0)
        eta = np.array([1.0, 2.0, 3.0])
        lag._eta_ref = eta.copy()
        assert lag.drift(eta) == 0.0
        assert lag.drift(eta * (1 + 1e-15)) > 0.0
        assert lag.drift(np.ones(5)) == np.inf  # shape change


class TestWarmStart:
    def test_warm_start_reduces_total_iterations(self):
        _, it_warm = _three_steps(_mini_config(prec_lag_rtol=0.0))
        _, it_cold = _three_steps(_mini_config(prec_lag_rtol=0.0), cold=True)
        assert it_warm <= it_cold

    def test_minres_zero_x0_matches_cold_start(self):
        """x0 of zeros must take exactly the legacy cold-start path."""
        from repro.solvers import minres

        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 30))
        A = A + A.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        r_none = minres(A, b, tol=1e-10)
        r_zero = minres(A, b, x0=np.zeros(30), tol=1e-10)
        assert r_none.iterations == r_zero.iterations
        assert np.array_equal(r_none.x, r_zero.x)

    def test_minres_warm_start_converges_to_same_solution(self):
        from repro.solvers import minres

        rng = np.random.default_rng(1)
        A = rng.standard_normal((40, 40))
        A = A + A.T + 40 * np.eye(40)
        b = rng.standard_normal(40)
        x_exact = np.linalg.solve(A, b)
        cold = minres(A, b, tol=1e-10)
        warm = minres(A, b, x0=x_exact + 1e-6 * rng.standard_normal(40), tol=1e-10)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.x, x_exact, rtol=0, atol=1e-7)


class TestDecidedSwitchesAreGone:
    """The cache, the lagged preconditioner and the warm start are how the
    driver works, not options: the old switches are rejected, not ignored."""

    @pytest.mark.parametrize(
        "removed", [{"cache_operators": False}, {"warm_start": False}, {"observe": True}]
    )
    def test_removed_config_field_is_a_type_error(self, removed):
        with pytest.raises(TypeError):
            RheaConfig(**removed)

    def test_prec_lag_rtol_must_be_a_number(self):
        from repro.rhea import ConfigError

        with pytest.raises(ConfigError, match="prec_lag_rtol"):
            RheaConfig(prec_lag_rtol=None)
