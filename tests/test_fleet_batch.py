"""Tests for batched MINRES and lockstep batched-vs-serial parity."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import obs
from repro.fem import StokesSystem
from repro.fleet import FleetService, ScenarioSpec, batch, batched_minres
from repro.fleet.batch import BatchGroup
from repro.mesh import extract_mesh
from repro.octree import LinearOctree, balance
from repro.rhea.convection import MantleConvection, RheaConfig, buoyancy
from repro.solvers import mesh_hierarchy, minres


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.5, 5.0, n)
    return Q @ np.diag(w) @ Q.T


class TestBatchedMinres:
    def test_matches_serial_per_column(self):
        """Each column of the batched recurrence is the serial
        Paige-Saunders recurrence: identical iterations, same solution."""
        n, nb = 40, 5
        A = random_spd(n, seed=1)
        B = np.random.default_rng(2).standard_normal((n, nb))
        res = batched_minres(A, B, tol=1e-10)
        assert res.converged.all()
        for j in range(nb):
            ser = minres(A, B[:, j], tol=1e-10)
            assert res.iterations[j] == ser.iterations
            np.testing.assert_allclose(res.X[:, j], ser.x, atol=1e-9)

    def test_per_column_tolerances(self):
        n, nb = 40, 4
        A = random_spd(n, seed=3)
        B = np.random.default_rng(4).standard_normal((n, nb))
        tol = np.array([1e-2, 1e-6, 1e-10, 1e-4])
        res = batched_minres(A, B, tol=tol)
        assert res.converged.all()
        # looser columns stop strictly earlier than the tightest one
        assert res.iterations[0] < res.iterations[2]
        assert res.iterations[3] < res.iterations[2]

    def test_masked_zero_column_frozen_bitwise(self):
        """A zero rhs/guess column — the finished-tenant mask — converges
        at iteration 0 and is never written to."""
        n, nb = 30, 3
        A = random_spd(n, seed=5)
        B = np.random.default_rng(6).standard_normal((n, nb))
        B[:, 1] = 0.0
        res = batched_minres(A, B, tol=1e-10)
        assert res.converged.all()
        assert res.iterations[1] == 0
        np.testing.assert_array_equal(res.X[:, 1], 0.0)
        # the live columns are unperturbed by the masked one
        for j in (0, 2):
            np.testing.assert_allclose(
                res.X[:, j], minres(A, B[:, j], tol=1e-10).x, atol=1e-9
            )

    def test_warm_start_column_converges_immediately(self):
        n, nb = 25, 2
        A = random_spd(n, seed=7)
        X = np.random.default_rng(8).standard_normal((n, nb))
        B = A @ X
        X0 = np.zeros((n, nb))
        X0[:, 1] = X[:, 1]
        res = batched_minres(A, B, X0=X0, tol=1e-8)
        assert res.iterations[1] == 0
        np.testing.assert_array_equal(res.X[:, 1], X[:, 1])

    def test_compaction_bitwise_identical(self):
        """The factory/compaction path drops converged columns without
        changing any surviving column's arithmetic: iteration counts and
        solutions match the uncompacted recurrence exactly."""
        n, nb = 50, 8
        A = random_spd(n, seed=9)
        B = np.random.default_rng(10).standard_normal((n, nb))
        # staggered tolerances force several compaction events
        tol = np.logspace(-3, -11, nb)

        def factory(cols):
            return (lambda X: A @ X), (lambda R: R)

        plain = batched_minres(A, B.copy(), tol=tol)
        compact = batched_minres(A, B.copy(), tol=tol, factory=factory)
        assert compact.converged.all()
        np.testing.assert_array_equal(plain.iterations, compact.iterations)
        np.testing.assert_array_equal(plain.X, compact.X)
        # residual history keeps full width with retired columns frozen
        assert all(r.shape == (nb,) for r in compact.residuals)

    def test_compaction_with_per_column_operators(self):
        """Compaction rebuilds operators on surviving global indices."""
        n, nb = 40, 6
        A = random_spd(n, seed=11)
        scale = np.linspace(1.0, 2.0, nb)  # A_j = scale_j * A

        def apply_full(X):
            return (A @ X) * scale[None, :]

        def factory(cols, scale=scale):
            sub = scale[cols]
            return (lambda X: (A @ X) * sub[None, :]), (lambda R: R)

        B = np.random.default_rng(12).standard_normal((n, nb))
        tol = np.logspace(-4, -10, nb)
        plain = batched_minres(apply_full, B.copy(), tol=tol)
        compact = batched_minres(apply_full, B.copy(), tol=tol, factory=factory)
        np.testing.assert_array_equal(plain.iterations, compact.iterations)
        np.testing.assert_array_equal(plain.X, compact.X)
        for j in range(nb):
            ser = minres(lambda x, j=j: scale[j] * (A @ x), B[:, j], tol=tol[j])
            np.testing.assert_allclose(compact.X[:, j], ser.x, atol=1e-8)

    def test_indefinite_preconditioner_rejected(self):
        A = random_spd(10, seed=13)
        B = np.ones((10, 2))
        with pytest.raises(ValueError, match="positive definite"):
            batched_minres(A, B, M=lambda R: -R)

    def test_per_column_iteration_caps(self):
        """A capped column freezes like a converged one, unconverged, and
        is bitwise untouched while its neighbour iterates on."""
        n = 60
        A = random_spd(n, seed=14)
        B = np.random.default_rng(15).standard_normal((n, 2))
        res = batched_minres(A, B, tol=1e-12, maxiter=np.array([3, 200]))
        np.testing.assert_array_equal(res.iterations[0], 3)
        assert not res.converged[0] and res.converged[1]
        assert res.iterations[1] > 3
        alone = minres(A, B[:, 0], tol=1e-12, maxiter=3)
        assert not alone.converged and alone.iterations == 3
        np.testing.assert_allclose(res.X[:, 0], alone.x, rtol=1e-12, atol=0)
        # the same column stopped at 3 in a solve that ends at 3 holds the
        # same bits as in the solve that ran on to convergence
        short = batched_minres(A, B, tol=1e-12, maxiter=3)
        np.testing.assert_array_equal(res.X[:, 0], short.X[:, 0])

    def test_exported_from_where_it_lives(self):
        import repro.fleet
        import repro.solvers

        assert repro.fleet.batched_minres is repro.solvers.batched_minres
        assert "batched_minres" in repro.solvers.__all__
        assert "batched_minres" in repro.fleet.__all__


def heterogeneous_specs(cycles=2):
    """Three deliberately different rheologies on one mesh structure."""
    return [
        ScenarioSpec(job_id="ra", tenant="t0", Ra=1e4, activation_energy=3.0,
                     initial_level=2, cycles=cycles, seed=0),
        ScenarioSpec(job_id="stiff", tenant="t1", Ra=4e4,
                     activation_energy=6.0, initial_level=2, cycles=cycles,
                     seed=1),
        ScenarioSpec(job_id="yld", tenant="t2", Ra=2e4,
                     viscosity_law="yielding", activation_energy=4.0,
                     yield_stress=4.0, initial_level=2, cycles=cycles,
                     seed=2),
    ]


def max_rel_dev(a, b):
    dev = 0.0
    for x, y in ((a.vrms, b.vrms), (a.nusselt, b.nusselt),
                 (a.mean_T, b.mean_T)):
        dev = max(dev, abs(x - y) / max(abs(y), 1e-30))
    return dev


#: per-tenant MINRES totals of ``heterogeneous_specs(cycles=2)``, cycle by
#: cycle, through the fleet's per-law GMG hierarchies (one for the two
#: Arrhenius tenants, one for the yielding one); on one hierarchy over
#: all three laws they were ra [19, 19], stiff [25, 22], yld [27, 29]
MINRES_COUNTS = {"ra": [19, 16], "stiff": [23, 21], "yld": [27, 27]}
#: the same through the three shared AMG hierarchies of the parent commit
#: 65fd152 (PR 22), the bound the GMG hierarchies must not exceed
MINRES_COUNTS_AMG_65FD152 = {"ra": [24, 22], "stiff": [30, 29], "yld": [40, 38]}


def run_fleet(specs):
    """Serve ``specs`` to completion on a fresh service; returns it."""
    svc = FleetService()
    for spec in specs:
        svc.admit(spec)
    svc.run()
    return svc


def histories(svc):
    """Per job: the per-cycle MINRES counts and (vrms, Nu, mean T)."""
    return {
        job_id: (
            [d.minres_iterations for d in job.sim.history],
            [(d.vrms, d.nusselt, d.mean_T) for d in job.sim.history],
        )
        for job_id, job in svc.jobs.items()
    }


def poisson_diag_loop(mesh, eta_b, g):
    """Reference Jacobi surrogate: eight per-corner ``np.add.at`` scatters
    over all nodes, then the hanging-node restriction ``Z^T``."""
    w = (eta_b * g[None, :]).T
    acc = np.zeros((mesh.n_nodes, w.shape[1]))
    for c in range(8):
        np.add.at(acc, mesh.element_nodes[:, c], w)
    return mesh.Z.T @ acc


class TestBatchedSerialParity:
    def test_heterogeneous_specs_match_serial(self, monkeypatch):
        """Satellite 2: three heterogeneous tenants batched together
        reproduce their serial one-job diagnostics to solver tolerance,
        with the sanitizer verifying the pack/unpack freezes."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        specs = heterogeneous_specs(cycles=2)
        svc = FleetService()
        for spec in specs:
            svc.admit(spec)
        svc.run()
        assert set(svc.statuses().values()) == {"done"}
        for spec in specs:
            serial = MantleConvection(spec.to_config(), spec.t_init())
            serial.run(spec.cycles, adapt=False)
            hist = svc.jobs[spec.job_id].sim.history
            assert len(hist) == len(serial.history) == spec.cycles
            for got, ref in zip(hist, serial.history):
                assert got.step == ref.step
                assert max_rel_dev(got, ref) < 1e-4

    def test_minres_counts_pinned(self):
        """The congruence-corrected per-law V-cycles are worth exact
        iteration counts: a congruence or transfer that stops matching
        costs this test, not iterations, and the GMG hierarchies never
        need more than the AMG hierarchies they replaced."""
        got = {
            job_id: counts
            for job_id, (counts, _) in histories(
                run_fleet(heterogeneous_specs(cycles=2))
            ).items()
        }
        assert got == MINRES_COUNTS
        for job_id, amg in MINRES_COUNTS_AMG_65FD152.items():
            assert all(g <= a for g, a in zip(got[job_id], amg))

    def test_mixed_batch_is_union_of_single_law_batches(self):
        """Each tenant preconditions on its own law's hierarchy, so a
        batch mixing Arrhenius and yielding tenants gives every tenant
        the MINRES counts of a batch holding only its law, and the same
        diagnostics to rounding."""
        specs = heterogeneous_specs(cycles=2)
        mixed = histories(run_fleet(specs))
        union = {
            **histories(run_fleet([s for s in specs if s.job_id != "yld"])),
            **histories(run_fleet([s for s in specs if s.job_id == "yld"])),
        }
        assert mixed.keys() == union.keys()
        for job_id, (counts, diags) in mixed.items():
            assert counts == union[job_id][0] == MINRES_COUNTS[job_id]
            np.testing.assert_allclose(diags, union[job_id][1], rtol=1e-12, atol=0)

    def test_per_job_results_follow_the_caller_order(self):
        """Columns are packed law by law (Arrhenius before yielding)
        whatever order the tenants come in, so admitting the yielding
        tenant first permutes the columns; every job still gets its own
        diagnostics and its own accountant ledger."""
        specs = heterogeneous_specs(cycles=2)
        law_order = run_fleet(specs)
        yld_first = run_fleet(specs[2:] + specs[:2])
        assert list(yld_first.jobs) == ["yld", "ra", "stiff"]
        ref = histories(law_order)
        for job_id, (counts, diags) in histories(yld_first).items():
            assert counts == ref[job_id][0] == MINRES_COUNTS[job_id]
            np.testing.assert_allclose(diags, ref[job_id][1], rtol=1e-12, atol=0)
        for job_id, led in yld_first.accountant.ledgers.items():
            other = law_order.accountant.ledgers[job_id]
            for field in ("cycles", "minres_iterations", "picard_iterations",
                          "advection_steps", "flops"):
                assert getattr(led, field) == getattr(other, field), (job_id, field)
            assert led.minres_iterations == sum(MINRES_COUNTS[job_id])

    def test_one_law_builds_one_hierarchy(self):
        """An all-Arrhenius batch is one hierarchy per cycle, with the
        counts it had when every batch shared one hierarchy."""
        specs = [s for s in heterogeneous_specs(cycles=2) if s.job_id != "yld"]
        with obs.attached(obs.PhaseTimer()) as timer:
            svc = run_fleet(specs)
        phases = timer.results()
        assert phases["fleet/stokes/prec_setup/gmg_setup"]["count"] == 2  # cycles
        got = {job_id: counts for job_id, (counts, _) in histories(svc).items()}
        assert got == {"ra": [19, 16], "stiff": [23, 21]}

    def test_poisson_diag_is_one_scatter(self):
        """The Jacobi surrogate scattered through the cached element
        gather equals the per-corner loop over all nodes restricted by
        ``Z^T``, on a mesh with hanging nodes."""
        tree = LinearOctree.uniform(2)
        tree = tree.refine(np.random.default_rng(3).random(len(tree)) < 0.25)
        mesh = extract_mesh(balance(tree, "corner").tree)
        assert mesh.hanging.any()
        rng = np.random.default_rng(4)
        eta_b = np.exp(rng.uniform(-3.0, 3.0, (5, mesh.n_elements)))
        g = np.prod(mesh.element_sizes(), axis=1) ** (1.0 / 3.0)
        got = batch._poisson_diag(mesh, eta_b, g)
        ref = poisson_diag_loop(mesh, eta_b, g)
        assert got.shape == (mesh.n_independent, 5)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_fleet_stokes_phases_and_vcycle_count(self, monkeypatch):
        """Under a bound timer ``fleet/stokes`` holds one GMG set-up per
        viscosity law and the per-level V-cycle phases, and
        ``gmg_vcycles`` counts one stacked cycle per law present in the
        block per preconditioner apply of the quantum, whatever the block
        width (compaction narrows it, and may leave a single law)."""
        svc = FleetService()
        group = BatchGroup([svc.admit(s).sim for s in heterogeneous_specs(cycles=1)])
        # packed column p holds a tenant of law packed_laws[p] (columns
        # are sorted by law)
        packed_laws = np.array(sorted(type(s.config.viscosity).__name__ for s in group.sims))
        n_laws_total = np.unique(packed_laws).size
        assert n_laws_total == 2
        widths, n_laws = [], []

        def counted(apply_M, cols):
            def apply(R):
                widths.append(R.shape[1])
                n_laws.append(np.unique(packed_laws[cols]).size)
                return apply_M(R)

            return apply

        def counting_minres(A, B, M, factory, **kw):
            def counting_factory(cols):
                apply_A, apply_M = factory(cols)
                return apply_A, counted(apply_M, cols)

            return batched_minres(
                A, B, M=counted(M, np.arange(B.shape[1])),
                factory=counting_factory, **kw,
            )

        monkeypatch.setattr(batch, "batched_minres", counting_minres)
        with obs.attached(obs.PhaseTimer()) as timer:
            group.cycle()
        phases = timer.results()
        vcycles = phases["fleet/stokes/minres"]["counters"]["gmg_vcycles"]
        assert vcycles == sum(n_laws) > len(widths) > 0
        assert max(widths) == 3 and min(widths) < 3  # full and compacted blocks
        assert phases["fleet/stokes/prec_setup/gmg_setup"]["count"] == n_laws_total
        gmg = "fleet/stokes/minres/stokes/gmg/"
        n_levels = len(mesh_hierarchy(group.mesh).meshes)
        assert n_levels >= 2
        for k in range(n_levels - 1):
            for part in ("smooth", "transfer"):
                assert phases[f"{gmg}level{k}/{part}"]["count"] == 2 * vcycles
        assert phases[gmg + "coarse"]["count"] == vcycles

    def test_finished_tenant_drops_out(self, monkeypatch):
        """A job with a shorter cycle budget retires mid-fleet; its state
        is frozen (sanitize-verified) and the others are unperturbed."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        short = ScenarioSpec(job_id="short", tenant="t0", Ra=1e4,
                             activation_energy=3.0, initial_level=2,
                             cycles=1, seed=0)
        long = ScenarioSpec(job_id="long", tenant="t1", Ra=2e4,
                            activation_energy=4.0, initial_level=2,
                            cycles=3, seed=1)
        svc = FleetService()
        svc.admit(short)
        svc.admit(long)
        svc.run()
        assert svc.statuses() == {"short": "done", "long": "done"}
        done_T = svc.jobs["short"].sim.T.copy()
        # the retired tenant's diagnostics match its solo run
        solo = MantleConvection(short.to_config(), short.t_init())
        solo.run(1, adapt=False)
        assert max_rel_dev(svc.jobs["short"].sim.history[-1],
                           solo.history[-1]) < 1e-4
        # and further fleet quanta never touched it
        np.testing.assert_array_equal(done_T, svc.jobs["short"].sim.T)

    def test_stokes_maxiter_is_per_tenant(self):
        """A tenant's ``stokes_maxiter`` caps its own column, whatever
        its neighbours were admitted with."""
        specs = heterogeneous_specs(cycles=1)
        specs[0] = dataclasses.replace(specs[0], stokes_maxiter=4)
        svc = FleetService()
        sims = [svc.admit(s).sim for s in specs]
        stats = BatchGroup(sims).solve_stokes()
        assert stats[0]["minres_iterations"] == 4 * stats[0]["picard_iterations"]
        assert not stats[0]["converged"]
        assert stats[1]["converged"] and stats[1]["minres_iterations"] > 8

    #: ``(MINRES iterations, Picard passes, blake2b of sim.u)`` of one
    #: Stokes solve of two strongly yielding tenants, Picard budgets 8
    #: (exits on ``du < picard_tol`` at pass 4) and 3 (runs out), batched
    #: together and each run on its own.  Recorded on a 2-core Intel Xeon
    #: (numpy 2.4.6, OpenBLAS 0.3.31)
    MULTI_PASS_BATCHED = [
        (193, 4, "737fec4f7e9034252f81530abc2a813f"),
        (167, 3, "949d198ff893765980bddb9ba7881df8"),
    ]
    MULTI_PASS_SERIAL = [
        (139, 4, "78058491551d161da4d395713eb94c93"),
        (126, 3, "05d1b1c2aa42ab92167384148ab0c10c"),
    ]

    def test_picard_multi_pass_pinned(self):
        """Per-column Picard budgets past two passes, both exits, bit for
        bit, batched and serial."""
        specs = [
            ScenarioSpec(job_id=f"budget{b}", viscosity_law="yielding",
                         yield_stress=1.0, Ra=1e5, initial_level=3,
                         max_level=3, cycles=1, picard_iterations=b)
            for b in (8, 3)
        ]

        def pin(stats, sim):
            digest = hashlib.blake2b(sim.u.tobytes(), digest_size=16).hexdigest()
            return stats["minres_iterations"], stats["picard_iterations"], digest

        svc = FleetService()
        sims = [svc.admit(s).sim for s in specs]
        stats = BatchGroup(sims).solve_stokes()
        assert [pin(st, s) for st, s in zip(stats, sims)] == self.MULTI_PASS_BATCHED
        solos = [MantleConvection(s.to_config(), s.t_init()) for s in specs]
        got = [pin(solo.solve_stokes(), solo) for solo in solos]
        assert got == self.MULTI_PASS_SERIAL

    def test_counters_count_once(self):
        """The recurrence emits the solver telemetry, the drivers do not
        repeat it: a bound timer reads what the histories say."""
        svc = FleetService()
        sims = [svc.admit(s).sim for s in heterogeneous_specs(cycles=1)]
        with obs.attached(obs.PhaseTimer()) as timer:
            diags = BatchGroup(sims).cycle()
        counters = timer.results()["fleet/stokes"]["counters"]
        assert counters["minres_iterations"] == sum(d.minres_iterations for d in diags)
        assert counters["minres_calls"] == max(d.picard_iterations for d in diags)

    def test_report_classifies_fleet_phases(self):
        """A report of one lockstep cycle books ``fleet/stokes`` and
        ``fleet/advection`` as the Stokes and advection components."""
        svc = FleetService()
        sims = [svc.admit(s).sim for s in heterogeneous_specs(cycles=1)]
        with obs.attached(obs.PhaseTimer()) as timer:
            BatchGroup(sims).cycle()
        fractions = obs.generate_report([timer.results()])["fractions"]
        assert fractions["stokes"] > 0
        assert fractions["advection"] > 0
        assert fractions["other"] == 0

    def test_finished_temperature_column_is_frozen(self, monkeypatch):
        """Unequal ``adapt_every``: the column that runs out of steps
        keeps the bits it held when it finished (sanitize-verified at
        unpack, and equal to a group that stops with it), and agrees with
        its serial one-column run to rounding (one ulp of GEMM blocking)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def solved_group(steps):
            specs = [
                dataclasses.replace(spec, adapt_every=n)
                for spec, n in zip(heterogeneous_specs(cycles=1), steps)
            ]
            svc = FleetService()
            group = BatchGroup([svc.admit(s).sim for s in specs])
            group.solve_stokes()
            return group

        group = solved_group((2, 5, 3))
        serial = []
        for sim in group.sims:
            solo = MantleConvection(sim.config, mesh=sim.mesh)
            solo.T, solo.u = sim.T.copy(), sim.u.copy()
            solo.advance_temperature(sim.config.adapt_every)
            serial.append(solo)
        dt = group.advance_temperature()
        for sim, solo, dt_j in zip(group.sims, serial, dt):
            assert sim.step_count == solo.step_count == sim.config.adapt_every
            assert sim.sim_time == solo.sim_time == sim.step_count * dt_j
            np.testing.assert_allclose(sim.T, solo.T, rtol=1e-12, atol=1e-14)

        together = solved_group((2, 2, 2))
        together.advance_temperature()
        np.testing.assert_array_equal(group.sims[0].T, together.sims[0].T)

    def test_internal_heating_matches_serial(self):
        """Tenants with internal heating batch like any others: from one
        solved state, each column of the group's advance is its tenant's
        serial one-column advance to rounding, with the same ``dt``."""
        svc = FleetService()
        sims = [svc.admit(s).sim for s in heterogeneous_specs(cycles=1)]
        for sim, gamma in zip(sims, (0.5, 0.0, 2.0)):
            sim.config = dataclasses.replace(sim.config, gamma=gamma)
        group = BatchGroup(sims)
        group.solve_stokes()
        serial = []
        for sim in sims:
            solo = MantleConvection(sim.config, mesh=sim.mesh)
            solo.T, solo.u = sim.T.copy(), sim.u.copy()
            serial.append((solo, solo.advance_temperature(sim.config.adapt_every)))
        dt = group.advance_temperature()
        for sim, (solo, dt_solo), dt_j in zip(sims, serial, dt):
            assert dt_j == dt_solo and sim.sim_time == solo.sim_time
            np.testing.assert_allclose(sim.T, solo.T, rtol=1e-12)

    def test_group_admission_checks(self):
        specs = heterogeneous_specs(cycles=1)
        svc = FleetService()
        sims = [svc.admit(s).sim for s in specs]
        other = MantleConvection(specs[0].to_config(), specs[0].t_init())
        with pytest.raises(ValueError, match="interned Mesh object"):
            BatchGroup(sims + [other])
        with pytest.raises(ValueError, match="empty batch group"):
            BatchGroup([])
        with pytest.raises(TypeError, match="amg_theta"):
            BatchGroup(sims, amg_theta=0.08)
        # two tenants of one configuration share the group's one hierarchy
        twins = [
            MantleConvection(RheaConfig(initial_level=2), mesh=sims[0].mesh)
            for _ in range(2)
        ]
        stats = BatchGroup(twins).solve_stokes()
        assert all(st["converged"] and st["minres_iterations"] > 0 for st in stats)
        assert stats[0] == stats[1]


class TestOneStokesProblem:
    def test_first_pass_rhs_is_the_serial_system_bitwise(self, monkeypatch):
        """The fleet's first-pass right-hand side is a batched
        ``StokesSystem`` on ``buoyancy``: packed column ``p`` is, bit for
        bit, the one-column system of tenant ``order[p]``."""
        svc = FleetService()
        sims = [svc.admit(s).sim for s in heterogeneous_specs(cycles=1)]
        group = BatchGroup(sims)
        seen = []

        def recording_minres(A, B, **kw):
            seen.append(B.copy())
            return batched_minres(A, B, **kw)

        monkeypatch.setattr(batch, "batched_minres", recording_minres)
        group.solve_stokes()
        F = seen[0]
        assert F.shape == (4 * group.mesh.n_independent, len(sims))
        for p, j in enumerate(group._order):
            sim = sims[j]
            one = StokesSystem(sim.mesh, sim.eta_elem, buoyancy([sim])[..., 0])
            np.testing.assert_array_equal(F[:, p], one.rhs())
