"""Integration tests for the coupled RHEA convection loop (small scale)."""

import hashlib

import numpy as np
import pytest

from repro.mesh import interpolate_fields
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

    def test_mesh_on_another_domain_rejected(self):
        """A unit-cube mesh under a config for the 1 x 1 x 2 box is
        refused at construction (it would run, and look for the top at
        z = 2 when it reports the Nusselt number)."""
        from repro.mesh import extract_mesh
        from repro.octree import LinearOctree

        mesh = extract_mesh(LinearOctree.uniform(2))
        with pytest.raises(
            ValueError, match=r"\(1\.0, 1\.0, 1\.0\) is not config\.domain \(1\.0, 1\.0, 2\.0\)"
        ):
            MantleConvection(small_config(domain=(1, 1, 2)), mesh=mesh)
        MantleConvection(small_config(domain=(1, 1, 1)), mesh=mesh)

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

    #: ``(MINRES iterations, Picard passes, blake2b of sim.u)`` of one
    #: solve with a strongly yielding lithosphere, per Picard budget:
    #: budget 8 exits on ``du < picard_tol`` at pass 4, budget 3 runs out.
    #: Recorded on a 2-core Intel Xeon (numpy 2.4.6, OpenBLAS 0.3.31)
    MULTI_PASS = {
        8: (151, 4, "b0cdb9445382b5715aaa8ab0d1d9ae51"),
        3: (136, 3, "92a7f872fc0ae1ef632592700ea856f5"),
    }

    @pytest.mark.parametrize("budget", sorted(MULTI_PASS))
    def test_picard_multi_pass_pinned(self, budget):
        """Both exits of a Picard loop that runs past two passes, bit for
        bit."""
        cfg = small_config(
            viscosity=YieldingViscosity(sigma_y=1.0), Ra=1e5, initial_level=3,
            max_level=3, picard_iterations=budget,
        )
        sim = MantleConvection(cfg)
        stats = sim.solve_stokes()
        digest = hashlib.blake2b(sim.u.tobytes(), digest_size=16).hexdigest()
        got = (stats["minres_iterations"], stats["picard_iterations"], digest)
        assert got == self.MULTI_PASS[budget]
        assert stats["converged"]


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

    #: ``(blake2b of sim.T, dt.hex())`` after four advection-limited steps
    #: on a 176-element adapted mesh, per internal heating ``gamma``.
    #: Recorded on a 2-core Intel Xeon (numpy 2.4.6, OpenBLAS 0.3.31)
    ADVANCE_PINNED = {
        0.0: ("6dbb2c1526563de06adb891b17cd0cd0", "0x1.deff4f94618ffp-16"),
        0.5: ("fecb239197a640eac6a5000327621c1c", "0x1.deff4f94618ffp-16"),
    }

    @pytest.mark.parametrize("gamma", sorted(ADVANCE_PINNED))
    def test_advance_pinned(self, gamma):
        """The temperature advance on an adapted mesh with hanging nodes,
        without and with internal heating, bit for bit."""
        def T_init(c):
            return 0.5 * (1 - np.tanh((c[:, 2] - 0.5) / 0.05))

        sim = MantleConvection(small_config(Ra=1e6, gamma=gamma), T_init=T_init)
        sim.adapt(target=200)
        assert sim.mesh.n_independent < sim.mesh.n_nodes  # hanging nodes
        sim.solve_stokes()
        dt = sim.advance_temperature(4)
        assert isinstance(dt, float)
        assert sim.step_count == 4 and sim.sim_time == 4 * dt
        digest = hashlib.blake2b(sim.T.tobytes(), digest_size=16).hexdigest()
        assert (digest, dt.hex()) == self.ADVANCE_PINNED[gamma]


def front(c):
    """A sharp horizontal temperature front at mid-depth."""
    return 0.5 * (1 - np.tanh((c[:, 2] - 0.5) / 0.05))


class TestAdaptPinned:
    """``MantleConvection.adapt`` on the 8 x 4 x 1 box, bit for bit.

    Each case solves Stokes once on the uniform level-3 mesh (so the
    velocity and the pressure warm start ride along) and adapts to each
    target in turn; the pin is the last step's
    ``(n_before, n_after, n_refined, n_coarsened, n_balance_added)`` and
    one blake2b over the mesh arrays, ``T``, ``u`` and the pressure warm
    start.  Recorded on a 2-core Intel Xeon (numpy 2.4.6, OpenBLAS 0.3.31).
    """

    CASES = {
        # the conductive profile refines, the second step to level 5
        "refine": (None, (700, 3000)),
        # the front refines near mid-depth; coarsening the rest and
        # BALANCETREE both act on the second step
        "coarsen": (front, (700, 300)),
    }
    PINNED = {
        "refine": ((708, 3046, 334, 0, 0), "9c5c34990a69b5126d1b29e7457b105d"),
        "coarsen": ((1184, 771, 1, 512, 28), "b7becd5d2930e44ba12b8e4ac7bfb7d6"),
    }

    @staticmethod
    def digest(sim) -> str:
        m = sim.mesh
        h = hashlib.blake2b(digest_size=16)
        lv = m.leaves
        for a in (
            lv.x, lv.y, lv.z, lv.level, m.node_coords_int, m.element_nodes,
            m.hanging, m.Z.data, m.Z.indices, m.Z.indptr, m.indep_nodes,
            sim.T, sim.u, sim._p_prev,
        ):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_adapt_pinned(self, case):
        T_init, targets = self.CASES[case]
        sim = MantleConvection(
            small_config(Ra=1e5, domain=(8.0, 4.0, 1.0), initial_level=3,
                         max_level=5, picard_iterations=1),
            T_init=T_init,
        )
        sim.solve_stokes()
        for target in targets:
            rep = sim.adapt(target=target)
        counts = (rep.n_before, rep.n_after, rep.n_refined, rep.n_coarsened,
                  rep.n_balance_added)
        assert sim._p_prev_mesh is sim.mesh
        assert (counts, self.digest(sim)) == self.PINNED[case]


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

    def test_adapt_carries_the_pressure_warm_start(self):
        """The first MINRES of the next cycle starts from the transferred,
        mean-free pressure, not from zero."""
        sim = MantleConvection(small_config())
        sim.solve_stokes()
        p_old = sim.mesh.expand(sim._p_prev)
        old_mesh = sim.mesh
        sim.adapt(target=150)
        assert sim.mesh is not old_mesh and sim._p_prev_mesh is sim.mesh
        n = sim.mesh.n_independent
        p0 = sim.stokes_guess(np.zeros(0, dtype=np.int64))[3 * n :]
        assert np.abs(p0).max() > 0
        assert abs(p0.mean()) <= 1e-14 * np.abs(p0).max()
        np.testing.assert_array_equal(p0, sim._p_prev)
        # the old pressure field, interpolated at the new nodes, mean removed
        want = interpolate_fields(old_mesh, p_old, sim.mesh)[sim.mesh.indep_nodes]
        np.testing.assert_allclose(p0, want - want.mean(), rtol=0, atol=1e-14)


class TestRunLoop:
    def test_short_run_produces_history(self):
        from repro import obs

        sim = MantleConvection(small_config(target_elements=100))
        with obs.attached(obs.PhaseTimer()) as timer:
            hist = sim.run(2)
        assert len(hist) == 2
        d = hist[-1]
        assert d.n_elements == sim.mesh.n_elements
        assert d.vrms >= 0
        assert np.isfinite(d.mean_T)
        assert d.minres_iterations > 0
        res = timer.results()
        for name in ("amr", "amr/balance", "stokes", "advection"):
            assert res[name]["count"] == 2

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
