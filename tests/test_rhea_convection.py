"""Integration tests for the coupled RHEA convection loop (small scale)."""

import numpy as np
import pytest

from repro.rhea import (
    MantleConvection,
    RheaConfig,
    YieldingViscosity,
    conductive_profile,
    gradient_indicator,
    combined_indicator,
    adjoint_weighted_indicator,
)


def small_config(**kw):
    base = dict(
        Ra=1e4,
        initial_level=2,
        min_level=1,
        max_level=4,
        adapt_every=4,
        picard_iterations=2,
        stokes_tol=1e-6,
        stokes_maxiter=300,
    )
    base.update(kw)
    return RheaConfig(**base)


class TestSetup:
    def test_initial_fields(self):
        sim = MantleConvection(small_config())
        assert sim.mesh.n_elements == 64
        assert sim.T.shape == (sim.mesh.n_nodes,)
        assert 0.0 <= sim.T.min() and sim.T.max() <= 1.0
        np.testing.assert_array_equal(sim.u, 0.0)

    def test_treeless_mesh_rejected_at_construction(self):
        """The GMG preconditioner coarsens the mesh's octree, so a mesh
        without one (a distributed submesh) fails here, not inside the
        first Stokes solve."""
        from repro.mesh import extract_submesh
        from repro.octree import LinearOctree

        mesh = extract_submesh(LinearOctree.uniform(2).leaves)
        assert mesh.tree is None
        with pytest.raises(ValueError, match="mesh.tree"):
            MantleConvection(small_config(), mesh=mesh)

    def test_conductive_profile_bounds(self):
        c = np.random.default_rng(0).random((100, 3))
        T = conductive_profile(c)
        assert T.min() >= 0 and T.max() <= 1
        # hot at the bottom
        assert conductive_profile(np.array([[0.5, 0.5, 0.0]]))[0] > \
               conductive_profile(np.array([[0.5, 0.5, 1.0]]))[0]


class TestStokesCoupling:
    def test_hot_plume_rises(self):
        """A hot blob at the bottom center must induce upward flow there:
        the fundamental buoyancy sanity check."""

        def T_init(c):
            r2 = (c[:, 0] - 0.5) ** 2 + (c[:, 1] - 0.5) ** 2 + (c[:, 2] - 0.3) ** 2
            return 0.8 * np.exp(-r2 / 0.05)

        sim = MantleConvection(small_config(), T_init=T_init)
        stats = sim.solve_stokes()
        assert stats["converged"]
        # velocity at nodes near the blob center
        c = sim.mesh.node_coords()
        near = np.linalg.norm(c - [0.5, 0.5, 0.3], axis=1) < 0.25
        assert sim.u[near, 2].mean() > 0

    def test_zero_temperature_no_flow(self):
        sim = MantleConvection(small_config(), T_init=lambda c: np.zeros(len(c)))
        sim.solve_stokes()
        assert sim.vrms() < 1e-10

    def test_picard_with_yielding_law(self):
        cfg = small_config(
            viscosity=YieldingViscosity(sigma_y=10.0), picard_iterations=3, Ra=1e4
        )
        sim = MantleConvection(cfg)
        stats = sim.solve_stokes()
        assert stats["converged"]
        assert stats["picard_iterations"] >= 1
        assert stats["eta_max"] >= stats["eta_min"] > 0


class TestTimeStepping:
    def test_temperature_stays_bounded(self):
        sim = MantleConvection(small_config())
        sim.solve_stokes()
        sim.advance_temperature(5)
        assert sim.T.min() > -0.1
        assert sim.T.max() < 1.2

    def test_time_advances(self):
        sim = MantleConvection(small_config())
        sim.solve_stokes()
        dt = sim.advance_temperature(3)
        assert dt > 0
        assert sim.sim_time == pytest.approx(3 * dt)
        assert sim.step_count == 3


class TestAdaptation:
    def test_adapt_keeps_target(self):
        def T_init(c):
            return 0.5 * (1 - np.tanh((c[:, 2] - 0.5) / 0.05))

        sim = MantleConvection(small_config(max_level=4), T_init=T_init)
        target = 200
        report = sim.adapt(target=target)
        assert report.n_after == sim.mesh.n_elements
        # within mark tolerance + balance additions
        assert 0.4 * target < sim.mesh.n_elements < 3 * target

    def test_adapt_transfers_temperature(self):
        def T_init(c):
            return 1.0 - c[:, 2]

        sim = MantleConvection(small_config(), T_init=T_init)
        sim.adapt(target=150)
        c = sim.mesh.node_coords()
        np.testing.assert_allclose(sim.T, 1.0 - c[:, 2], atol=1e-9)

    def test_refinement_follows_front(self):
        def T_init(c):
            return 0.5 * (1 - np.tanh((c[:, 2] - 0.5) / 0.03))

        sim = MantleConvection(small_config(initial_level=3, max_level=5), T_init=T_init)
        sim.adapt(target=800)
        centers = sim.mesh.element_centers()
        levels = sim.mesh.tree.levels
        near = np.abs(centers[:, 2] - 0.5) < 0.15
        far = np.abs(centers[:, 2] - 0.5) > 0.3
        assert levels[near].astype(float).mean() > levels[far].astype(float).mean()


class TestRunLoop:
    def test_short_run_produces_history(self):
        sim = MantleConvection(small_config(target_elements=100))
        hist = sim.run(2)
        assert len(hist) == 2
        d = hist[-1]
        assert d.n_elements == sim.mesh.n_elements
        assert d.vrms >= 0
        assert np.isfinite(d.mean_T)
        assert d.minres_iterations > 0
        assert "Stokes" in d.timings and "TimeIntegration" in d.timings

    def test_solver_counters_count_once(self):
        """``minres()`` emits the solver telemetry; the driver does not
        emit the Picard total on top of it."""
        from repro import obs

        sim = MantleConvection(small_config(picard_iterations=2))
        with obs.attached(obs.PhaseTimer()) as timer:
            sim.run(1, adapt=False)
        counters = timer.results()["stokes"]["counters"]
        assert counters["minres_iterations"] == sum(
            d.minres_iterations for d in sim.history
        )
        assert counters["minres_calls"] == sim.history[-1].picard_iterations

    def test_convection_generates_motion(self):
        sim = MantleConvection(small_config(Ra=1e5))
        sim.run(2, adapt=False)
        assert sim.history[-1].vrms > 0.1

    @pytest.mark.parametrize("bc", ["free_slip", "no_slip"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_default_driver_on_shallow_hierarchies(self, monkeypatch, level, bc):
        """On the coarsest meshes the GMG hierarchy is one dense level
        (level 1: 27 nodes) or two (level 2); two default cycles there
        still give converged solves and finite diagnostics."""
        sim = MantleConvection(RheaConfig(initial_level=level, velocity_bc=bc))
        converged = []
        solve = sim.solve_stokes

        def recording_solve():
            stats = solve()
            converged.append(stats["converged"])
            return stats

        monkeypatch.setattr(sim, "solve_stokes", recording_solve)
        sim.run(2)
        assert converged == [True, True]
        for d in sim.history:
            assert np.all(np.isfinite([d.vrms, d.nusselt, d.mean_T]))
            assert d.minres_iterations > 0


class TestIndicators:
    def test_gradient_indicator_peaks_at_front(self):
        sim = MantleConvection(
            small_config(initial_level=3),
            T_init=lambda c: 0.5 * (1 - np.tanh((c[:, 2] - 0.5) / 0.05)),
        )
        ind = gradient_indicator(sim.mesh, sim.T)
        centers = sim.mesh.element_centers()
        at_front = np.abs(centers[:, 2] - 0.5) < 0.1
        assert ind[at_front].mean() > 3 * ind[~at_front].mean()

    def test_combined_indicator_adds_viscosity_term(self):
        sim = MantleConvection(small_config(initial_level=2))
        eta = np.ones(sim.mesh.n_elements)
        eta[0] = 1e4  # sharp viscosity jump at element 0
        base = combined_indicator(sim.mesh, sim.T, None)
        comb = combined_indicator(sim.mesh, sim.T, eta, viscosity_weight=1.0)
        assert comb[0] > base[0]

    def test_adjoint_indicator_positive_and_finite(self):
        sim = MantleConvection(small_config(initial_level=2))
        vel = np.tile([1.0, 0.0, 0.0], (sim.mesh.n_elements, 1))
        ind = adjoint_weighted_indicator(sim.mesh, sim.T, vel, kappa=0.1)
        assert np.all(np.isfinite(ind))
        assert np.all(ind >= 0)
        assert ind.max() > 0
