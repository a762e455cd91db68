"""Tests for MARKELEMENTS, the serial adaptation driver, and the SPMD
pipeline — including P-invariance of the distributed transport solver."""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.amr import (
    ParAmrPipeline,
    RotatingFrontWorkload,
    adapt_mesh,
    mark_elements,
    rotating_velocity,
)
from repro.amr.mark import relocate_refine_marks
from repro.fem import AdvectionDiffusion, ParAdvectionDiffusion
from repro.mesh import extract_mesh, node_keys
from repro.mesh.parmesh import extract_parmesh
from repro.octree import (
    LinearOctree,
    balance,
    balance_tree,
    gather_tree,
    new_tree,
    partition_tree,
)
from repro.parallel import run_spmd

#: the Figure-4 functions both adaptation drivers time as ``amr/<name>``
AMR_FUNCTIONS = ("mark", "coarsen", "refine", "balance", "extract_mesh", "interpolate")


class TestMarkElements:
    def test_hits_target_count(self):
        rng = np.random.default_rng(0)
        eta = rng.random(1000)
        levels = np.full(1000, 4)
        res = mark_elements(eta, levels, target=2000, tol=0.1)
        assert abs(res.expected_count - 2000) <= 0.15 * 2000

    def test_coarsening_when_target_below(self):
        rng = np.random.default_rng(1)
        eta = rng.random(1024)
        levels = np.full(1024, 4)
        res = mark_elements(eta, levels, target=600, tol=0.1)
        assert res.coarsen.sum() > 0
        assert res.expected_count < 1024 * 1.05

    def test_level_caps_respected(self):
        eta = np.array([10.0, 10.0, 0.0, 0.0])
        levels = np.array([6, 3, 1, 3])
        res = mark_elements(eta, levels, target=20, max_level=6, min_level=1)
        assert not res.refine[0]  # already at max level
        assert not res.coarsen[2]  # already at min level

    def test_zero_indicator_no_marks(self):
        res = mark_elements(np.zeros(10), np.full(10, 3), target=100)
        assert not res.refine.any() and not res.coarsen.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            mark_elements(np.ones(3), np.ones(4), 10)
        with pytest.raises(ValueError):
            mark_elements(-np.ones(3), np.ones(3), 10)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(2)
        eta_g = rng.random(64)
        levels_g = np.full(64, 2)
        ref = mark_elements(eta_g, levels_g, target=150)

        def kernel(comm):
            lo, _ = comm.global_offsets(16)
            res = mark_elements(
                eta_g[lo : lo + 16], levels_g[lo : lo + 16], target=150, comm=comm
            )
            return res.refine_threshold, res.expected_count

        for thr, cnt in run_spmd(4, kernel):
            assert thr == pytest.approx(ref.refine_threshold)
            assert cnt == ref.expected_count


class TestRelocateRefineMarks:
    """The one function both adaptation drivers carry refine marks across
    COARSENTREE with (serial tree or a rank's segment of the distributed
    one)."""

    def test_marks_follow_leaves_through_coarsening(self):
        tree = LinearOctree.uniform(2)
        refine = np.zeros(len(tree), dtype=bool)
        refine[[9, 40]] = True
        coarsen = np.zeros(len(tree), dtype=bool)
        coarsen[16:32] = True  # two complete families, neither marked
        tree_c, nfam = tree.coarsen(coarsen)
        assert nfam == 2
        mask = relocate_refine_marks(tree.leaves, refine, tree_c.leaves)
        assert mask.sum() == 2
        np.testing.assert_array_equal(
            tree_c.leaves[mask].keys(), tree.leaves[refine].keys()
        )
        np.testing.assert_array_equal(tree_c.levels[mask], 2)

    def test_no_marks(self):
        tree = LinearOctree.uniform(1)
        mask = relocate_refine_marks(tree.leaves, np.zeros(8, dtype=bool), tree.leaves)
        assert mask.shape == (8,) and not mask.any()

    def test_coarsened_away_leaf_is_an_error_on_a_rank_segment_too(self):
        """The level guard the distributed driver used to lack."""

        def kernel(comm):
            pt = new_tree(comm, 2)
            refine = np.zeros(len(pt), dtype=bool)
            refine[0] = True
            from repro.octree.partree import coarsen_tree

            # masks that contradict each other: the marked leaf's family goes
            coarse, _ = coarsen_tree(pt, np.ones(len(pt), dtype=bool))
            with pytest.raises(AssertionError, match="coarsened away"):
                relocate_refine_marks(pt.octs, refine, coarse.octs)
            return True

        assert all(run_spmd(2, kernel))


class TestSerialAdaptDriver:
    def test_adapt_counts_and_timings(self):
        mesh = extract_mesh(balance(LinearOctree.uniform(3), "corner").tree)
        c = mesh.element_centers()
        eta = np.exp(-np.linalg.norm(c - 0.5, axis=1) ** 2 / 0.02)
        with obs.attached(obs.PhaseTimer()) as timer, obs.phase("amr"):
            new_mesh, _, rep = adapt_mesh(mesh, eta, target=700)
        assert rep.n_after == new_mesh.n_elements
        assert rep.n_refined > 0
        assert rep.n_before == 512
        res = timer.results()
        for name in AMR_FUNCTIONS:
            assert res[f"amr/{name}"]["count"] == 1

    @pytest.mark.parametrize("target", [700, 100])
    def test_serial_equals_two_ranks_on_the_box(self, target):
        """One step on the 8 x 4 x 1 box with the same global indicator:
        the serial mesh is the gathered tree of the 2-rank pipeline's
        step, with the same counts and the same transferred field at
        every dof (the forest is the unit cube, so the box enters only
        through the indicator and the field's scaling)."""
        domain = np.array([8.0, 4.0, 1.0])
        mesh = extract_mesh(LinearOctree.uniform(3), domain)
        eta = np.exp(-np.sum((mesh.element_centers() - [2.0, 3.0, 0.5]) ** 2, axis=1))
        wind = np.array([0.3, -0.2, 1.0])
        keys = mesh.leaves.keys()

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=3, min_level=1, max_level=5)
            pipe.indicator = lambda: eta[np.searchsorted(keys, pipe.pt.octs.keys())]
            m = pipe.pm.mesh
            pipe.T = m.node_coords()[m.indep_nodes] @ wind
            stats = pipe.adapt(target)
            m = pipe.pm.mesh
            mine = pipe.pm.active & (pipe.pm.node_owner[m.indep_nodes] == comm.rank)
            return (gather_tree(pipe.pt), stats,
                    node_keys(m.node_coords_int[m.indep_nodes][mine]), pipe.T[mine])

        T = mesh.node_coords() / domain @ wind
        new_mesh, out, rep = adapt_mesh(mesh, eta, target, {"T": T}, min_level=1, max_level=5)
        two = run_spmd(2, kernel)
        for gathered, stats, _, _ in two:
            np.testing.assert_array_equal(gathered.keys, new_mesh.leaves.keys())
            np.testing.assert_array_equal(gathered.levels, new_mesh.leaves.level)
            got = (stats.n_before, stats.n_after, stats.n_refined, stats.n_coarsened,
                   stats.n_balance_added)
            assert got == (rep.n_before, rep.n_after, rep.n_refined, rep.n_coarsened,
                           rep.n_balance_added)
        assert rep.n_coarsened > 0 if target == 100 else rep.n_refined > 0
        dof_keys = np.concatenate([r[2] for r in two])
        order = np.argsort(dof_keys)
        indep = new_mesh.indep_nodes
        want = np.argsort(node_keys(new_mesh.node_coords_int[indep]))
        np.testing.assert_array_equal(
            dof_keys[order], node_keys(new_mesh.node_coords_int[indep])[want]
        )
        vals = np.concatenate([r[3] for r in two])
        np.testing.assert_allclose(vals[order], out["T"][indep][want], rtol=0, atol=1e-12)

    def test_serial_run_records_the_pipeline_phase_paths(self):
        """The serial driver and the P = 1 SPMD pipeline report the
        Figure-4 functions under the same ``amr/*`` phase paths."""
        from repro.rhea import MantleConvection, RheaConfig

        want = {f"amr/{name}" for name in AMR_FUNCTIONS}
        sim = MantleConvection(RheaConfig(
            Ra=1e4, initial_level=2, min_level=1, max_level=3, adapt_every=1,
            picard_iterations=1, target_elements=100,
        ))
        with obs.attached(obs.PhaseTimer()) as timer:
            sim.run(1)
        serial = {p for p in timer.results() if p in want}

        def kernel(comm):
            timer = obs.enable(comm)
            try:
                pipe = ParAmrPipeline(comm, coarse_level=2, max_level=3)
                pipe.run_cycles(1, 1, target=100)
            finally:
                obs.disable()
            return {p for p in timer.results() if p in want}

        assert serial == run_spmd(1, kernel)[0] == want

    def test_field_transfer_preserves_linears(self):
        mesh = extract_mesh(LinearOctree.uniform(2))
        coords = mesh.node_coords()
        T = coords[:, 0] + 2 * coords[:, 2]
        eta = np.linspace(0, 1, mesh.n_elements)
        new_mesh, fields, _ = adapt_mesh(mesh, eta, target=100, fields={"T": T})
        nc = new_mesh.node_coords()
        np.testing.assert_allclose(fields["T"], nc[:, 0] + 2 * nc[:, 2], atol=1e-9)


class TestParAdvectionPInvariance:
    def test_distributed_step_matches_serial(self):
        """The gold test: one explicit SUPG step on P ranks equals the
        serial step, node for node."""
        wind = rotating_velocity(scale=2.0)

        # serial reference
        tree = balance(LinearOctree.uniform(2), "corner").tree
        mesh = extract_mesh(tree)
        centers = mesh.element_centers()
        eq = AdvectionDiffusion(mesh, 1e-4, wind(centers))
        coords = mesh.node_coords()
        T0 = np.sin(np.pi * coords[:, 0]) * np.cos(np.pi * coords[:, 1])
        T_ind = T0[mesh.indep_nodes]
        dt = 1e-3
        T_ref = eq.advance(T_ind, dt, 3)
        ref_map = {}
        from repro.mesh import node_keys

        keys_ref = node_keys(mesh.node_coords_int[mesh.indep_nodes])
        for k, v in zip(keys_ref, T_ref):
            ref_map[int(k)] = v

        def kernel(comm):
            pt = new_tree(comm, 2)
            pt, _, _ = balance_tree(pt, "corner")
            pt, _ = partition_tree(pt)
            pm = extract_parmesh(pt)
            peq = ParAdvectionDiffusion(pm, 1e-4, wind)
            c = pm.mesh.node_coords()
            T0l = np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1])
            Tl = T0l[pm.mesh.indep_nodes]
            Tl = peq.advance(Tl, dt, 3)
            ks = node_keys(pm.mesh.node_coords_int[pm.mesh.indep_nodes])
            mine = pm.node_owner[pm.mesh.indep_nodes] == comm.rank
            return ks[mine], Tl[mine]

        for p in [1, 2, 4]:
            out = run_spmd(p, kernel)
            seen = 0
            for ks, vals in out:
                for k, v in zip(ks, vals):
                    assert ref_map[int(k)] == pytest.approx(v, abs=1e-11)
                    seen += 1
            assert seen == len(ref_map)

    def test_cfl_agrees_with_serial(self):
        wind = rotating_velocity(scale=1.0)
        tree = balance(LinearOctree.uniform(2), "corner").tree
        mesh = extract_mesh(tree)
        eq = AdvectionDiffusion(mesh, 1e-4, wind(mesh.element_centers()))
        dt_ref = eq.cfl_dt(0.4)

        def kernel(comm):
            pt = new_tree(comm, 2)
            pm = extract_parmesh(pt)
            return ParAdvectionDiffusion(pm, 1e-4, wind).cfl_dt(0.4)

        for dt in run_spmd(3, kernel):
            assert dt == pytest.approx(dt_ref)


class TestParAmrPipeline:
    def test_max_level_beyond_balance_keys_rejected(self):
        """Balance encodes 19 levels; a deeper cap would fail mid-run."""

        def kernel(comm):
            ParAmrPipeline(comm, coarse_level=2, max_level=30)

        with pytest.raises(ValueError, match="max_level must be <= 19"):
            run_spmd(1, kernel)

    @pytest.mark.parametrize("p", [1, 3])
    def test_cycles_run_and_track_target(self, p):
        def kernel(comm):
            timer = obs.enable(comm)
            try:
                pipe = ParAmrPipeline(comm, coarse_level=2, max_level=5)
                pipe.run_cycles(n_cycles=2, steps_per_cycle=3, target=300)
            finally:
                obs.disable()
            return pipe.pt.global_count(), pipe.adapt_history[-1], timer.results()

        for n, stats, res in run_spmd(p, kernel):
            assert 100 < n < 1200
            assert stats.n_after == n
            assert stats.n_refined + stats.n_coarsened > 0
            assert res["advection"]["count"] == 2
            assert res["amr/new_tree"]["count"] == 1
            assert res["amr/balance"]["count"] == 3  # NEWTREE's and two cycles'
            assert 0.0 < obs.generate_report([res])["amr_fraction"] < 1.0

    @pytest.mark.parametrize("cycles,steps,target", [(2, 2, 250), (2, 3, 400)])
    def test_p_invariant_global_tree(self, cycles, steps, target):
        """After identical cycles, the distributed tree is identical for
        every rank count.  The (2, 3, 400) case is the formerly P-variant
        regime: it needs both the quantized marking thresholds and
        split-family coarsening to hold at P=3."""

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(n_cycles=cycles, steps_per_cycle=steps, target=target)
            from repro.octree import gather_tree

            g = gather_tree(pipe.pt)
            return g.keys.copy(), g.levels.copy()

        ref_keys, ref_levels = run_spmd(1, kernel)[0]
        for p in [2, 3, 4]:
            for keys, levels in run_spmd(p, kernel):
                np.testing.assert_array_equal(keys, ref_keys)
                np.testing.assert_array_equal(levels, ref_levels)

    #: the element-corner temperature digest follows the summation order
    #: of the shared-node exchange, so it is recorded per rank count, and
    #: that of the transport assembly: ``ORACLE_DIGEST`` is the COO build
    #: the Galerkin product replaced (``tests/oracles/assembly.py``)
    PINNED_DIGEST = {
        1: "fb987ef72389341b86ad33051d39b568",
        2: "0c931ed487362eb17d81bfbb66bd4a27",
        3: "af4e1a25ffac166d47262bad8bb05ef9",
    }
    ORACLE_DIGEST = {
        1: "ad8f4770329104376f375b55ad6bb96c",
        2: "9dd520102a3a1e2c4f7fea973b49035f",
        3: "f59d8d56b9c3676ca0ffe4c5686f9655",
    }

    @staticmethod
    def front_cycles(p, assemble_owned=None):
        """Three cycles of the benchmark's front at its smoke size:
        ``(global leaves, level histogram, global dofs, element-corner
        temperature in global curve order)``.  ``assemble_owned``, when
        given, replaces ``ParAdvectionDiffusion._assemble_owned`` on every
        rank for the run: a worker process does not see a patch made in
        this one, and the pool's workers outlive the run."""
        workload = RotatingFrontWorkload(velocity=rotating_velocity(scale=3.0))
        original = ParAdvectionDiffusion._assemble_owned

        def kernel(comm):
            if assemble_owned is not None:
                ParAdvectionDiffusion._assemble_owned = assemble_owned
            try:
                pipe = ParAmrPipeline(
                    comm, workload=workload, coarse_level=2, max_level=5
                )
                for _ in range(3):
                    stats = pipe.adapt(1500)
                    pipe.advance_time(0.05, cfl=0.5)
                pm = pipe.pm
                corner = pm.mesh.expand(pipe.T)[
                    pm.mesh.element_nodes[pm.owned_elements]
                ]
                # a collective: no thread rank is still assembling when
                # another one restores the shared class below
                parts = comm.gather(corner, root=0)
            finally:
                ParAdvectionDiffusion._assemble_owned = original
            return (
                pipe.pt.global_count(),
                stats.level_histogram,
                pm.n_global,
                parts and np.concatenate(parts),
            )

        return run_spmd(p, kernel)[0]

    @staticmethod
    def digest(corner) -> str:
        return hashlib.blake2b(corner.tobytes(), digest_size=16).hexdigest()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_pinned_cycles(self, p):
        """The front's global leaf count, level histogram and dof count
        recorded before the distributed octree became the one-tree
        ``ParForest``, and the digest of the element-corner temperature."""
        n, hist, n_global, corner = self.front_cycles(p)
        assert (n, hist, n_global) == (1506, {3: 372, 4: 1118, 5: 16}, 1487)
        assert self.digest(corner) == self.PINNED_DIGEST[p]

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_pinned_digest_moved_by_roundoff_only(self, p):
        """With the transport operator assembled by the COO build, the
        pipeline gives the digest pinned before the Galerkin product, and
        every corner temperature agrees with today's to 1e-12 relative."""
        from .oracles.assembly import assemble_owned_split

        corner = self.front_cycles(p)[3]
        want = self.front_cycles(
            p, lambda eq, elem: assemble_owned_split(eq.pm, elem)
        )[3]
        assert self.digest(want) == self.ORACLE_DIGEST[p]
        assert np.all(np.abs(corner - want) <= 1e-12 * np.abs(want))

    def test_front_drives_refinement(self):
        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=5)
            pipe.adapt(target=400)
            # refined elements should concentrate near the front radius
            mesh = pipe.pm.mesh
            owned = pipe.pm.owned_elements
            centers = mesh.element_centers()[owned]
            levels = mesh.leaves.level[owned].astype(float)
            r = np.linalg.norm(
                centers - np.asarray(pipe.workload.front_center), axis=1
            )
            near = np.abs(r - pipe.workload.front_radius) < 0.08
            ln = levels[near].sum() if near.any() else 0.0
            cn = near.sum()
            lf = levels[~near].sum() if (~near).any() else 0.0
            cf = (~near).sum()
            tot = comm.allreduce(np.array([ln, cn, lf, cf]))
            return tot[0] / max(tot[1], 1), tot[2] / max(tot[3], 1)

        for near_avg, far_avg in run_spmd(2, kernel):
            assert near_avg > far_avg
