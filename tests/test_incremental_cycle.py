"""The incremental AMR cycle against its whole-mesh oracles.

- frontier-driven 2:1 balance (``repro.forest.Forest._ripple``, on the
  octree as the one-tree forest) == the full sweeps of
  ``tests/oracles/balance.py`` (Morton keys) and
  ``tests/oracles/forest_balance.py`` (forest keys): identical leaves,
  per-call rounds, exchanges, leaves added and collective count, serial
  and distributed, for every connectivity;
- the local ripple is bounded (corrupted input is rejected by the forest
  constructor, or, fed to the kernel unchecked, terminates);
- row-sum lumped mass == row sums of the assembled constrained mass,
  serial and on P ranks, on meshes with edge- and face-hanging nodes;
- vectorised constraint de-duplication == the per-node loop;
- the transport build is attributed to the advection phase and timer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.amr import ParAmrPipeline
from repro.amr.pardriver import rotating_velocity
from repro.fem import ParAdvectionDiffusion, assemble_scalar, lumped_mass
from repro.fem.hexops import ElementOps
from repro.forest import FOREST_MAX_LEVEL, Forest, ParForest, unit_cube
from repro.mesh import extract_mesh, node_keys
from repro.mesh.extract import _find_hanging_constraints, _first_discovery
from repro.mesh.parmesh import extract_parmesh
from repro.octree import (
    ROOT_LEN,
    OctantArray,
    balance_tree,
    directions_for,
    gather_tree,
    partition_tree,
)
from repro.octree.morton import key_range_size
from repro.parallel import run_spmd

from .oracles.assembly import lumped_mass_assembled, lumped_owned_assembled
from .oracles.balance import (
    balance_full_sweep,
    balance_tree_full_sweep,
    ripple_full_sweep,
)
from .oracles.forest_balance import (
    balance_forest_full_sweep,
    find_leaf,
    ripple_forest_full_sweep,
)
from .oracles.constraints import first_discovery_loop
from .oracles.mesh_extract import finest_level
from .test_forest_recursive import build_ptree
from .test_octree_balance import center_refined_tree

CONNECTIVITIES = ["face", "edge", "corner"]
OPS = ElementOps()


def one_tree(leaves: OctantArray) -> Forest:
    """The sorted ``leaves`` as the one-tree forest."""
    return Forest(unit_cube(), np.zeros(len(leaves), dtype=np.int64), leaves)


def graded_tree(seed: int, rounds: int = 6) -> Forest:
    """Random unbalanced tree: three random points are refined every round
    (level jumps up to ``rounds``, so balancing ripples for several rounds)
    on top of a sprinkle of random refinement."""
    rng = np.random.default_rng(seed)
    tree = Forest.uniform(unit_cube(), 1)
    spots = rng.integers(0, ROOT_LEN, (3, 3))
    for _ in range(rounds):
        mask = rng.random(len(tree)) < 0.04
        mask[find_leaf(tree.octs, *spots.T)] = True
        tree = tree.refine(mask)
    return tree


def graded_ptree(comm, seed: int, rounds: int = 6):
    """The same tree, distributed in equal Morton segments."""
    leaves = graded_tree(seed, rounds).octs if comm.rank == 0 else OctantArray.empty()
    pt = ParForest(comm, unit_cube(), np.zeros(len(leaves), dtype=np.int64), leaves)
    return partition_tree(pt)[0]


class TestFrontierBalanceMatchesFullSweep:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), connectivity=st.sampled_from(CONNECTIVITIES))
    def test_serial(self, seed, connectivity):
        tree = graded_tree(seed)
        got, added = tree.balance(connectivity)
        dirs = directions_for(connectivity)
        _, rounds = tree._ripple(dirs, np.uint64(0), tree.fkey_end(), None, 64)
        want, added_w, rounds_w = balance_full_sweep(tree, connectivity)
        assert got.octs.equals(want.octs)
        assert (rounds, added) == (rounds_w, added_w)
        assert got.is_balanced(connectivity)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31), connectivity=st.sampled_from(CONNECTIVITIES))
    def test_distributed(self, p, seed, connectivity):
        def kernel(comm):
            pt = graded_ptree(comm, seed)
            calls = [comm.stats.total_collective_calls]
            want, added_w, exch_w, rounds_w = balance_tree_full_sweep(pt, connectivity)
            calls.append(comm.stats.total_collective_calls)
            got, added, exch = balance_tree(pt, connectivity)
            calls.append(comm.stats.total_collective_calls)
            # the oracle driver around the frontier kernel exposes the
            # per-call round counts the public entry point does not return
            pf, _, _, rounds = balance_forest_full_sweep(pt, connectivity, Forest._ripple)
            assert got.octs.equals(want) and pf.octs.equals(want)
            assert (added, exch, rounds) == (added_w, exch_w, rounds_w)
            assert calls[2] - calls[1] == calls[1] - calls[0]
            return gather_tree(got)

        trees = run_spmd(p, kernel)
        assert trees[0].octs.equals(graded_tree(seed).balance(connectivity)[0].octs)

    def test_extra_only_start_from_a_fixed_point(self):
        """The post-exchange call samples ``extra`` alone; that is the full
        sweep only because the segment is already balanced against itself."""
        f = graded_tree(3).balance("corner")[0]
        deep = center_refined_tree(6).octs
        extra = deep[deep.level >= 5]
        args = (directions_for("corner"), np.uint64(0), f.fkey_end(), one_tree(extra), 64)
        got, rounds = f._ripple(*args)
        want, rounds_w = ripple_forest_full_sweep(f, *args)
        assert got.octs.equals(want.octs) and rounds == rounds_w > 0
        octree, rounds_o = ripple_full_sweep(
            f.octs, args[0], np.uint64(0), key_range_size(0), extra
        )
        assert got.octs.equals(octree) and rounds == rounds_o


class TestRippleIsBounded:
    def test_round_cap_raises(self):
        f = center_refined_tree(8)
        args = (directions_for("edge"), np.uint64(0), f.fkey_end(), None)
        with pytest.raises(RuntimeError, match="did not converge"):
            f._ripple(*args, 3)
        assert f._ripple(*args, FOREST_MAX_LEVEL)[1] == balance_full_sweep(f, "edge")[2]

    def test_corrupted_overlapping_input_terminates(self):
        """Leaves that overlap and are out of order break the sorted-tiling
        invariant the point location relies on.  The forest constructor
        rejects them (``ValueError``), so ``balance`` never runs on them;
        fed to the kernel unchecked, it must still stop: it returns, or
        raises the non-convergence error."""
        rng = np.random.default_rng(0)
        dirs = directions_for("corner")
        raised = 0
        for depth in (6, 10, 12, 16, 18):
            clean = center_refined_tree(depth)
            bad = OctantArray.concat(
                [clean.octs, OctantArray.uniform(1), OctantArray.uniform(2)]
            )
            bad = bad[rng.permutation(len(bad))]
            with pytest.raises(ValueError, match="strictly increasing"):
                one_tree(bad)
            f = clean._with(np.zeros(len(bad), dtype=np.int64), bad)
            try:
                f._ripple(dirs, np.uint64(0), f.fkey_end(), None, FOREST_MAX_LEVEL)
            except RuntimeError as e:
                assert "did not converge" in str(e)
                raised += 1
        assert raised > 0


def raw_constraints(mesh):
    keys = node_keys(mesh.node_coords_int)
    return _find_hanging_constraints(keys, mesh.leaves, mesh.element_nodes, finest_level(mesh))


def hanging_kinds(mesh) -> set:
    """Direct-parent counts among the hanging nodes (2 = edge, 4 = face)."""
    return set(np.round(1.0 / raw_constraints(mesh)[2]).astype(int))


class TestRowSumLumping:
    def test_serial_matches_assembled(self):
        tree = center_refined_tree(3).balance("corner")[0]
        mesh = extract_mesh(tree)
        assert hanging_kinds(mesh) == {2, 4}
        rng = np.random.default_rng(1)
        mass = OPS.mass(mesh.element_sizes(), 0.5 + rng.random(mesh.n_elements))
        np.testing.assert_allclose(
            lumped_mass(mesh, mass), lumped_mass_assembled(mesh, mass), rtol=1e-14
        )
        unconstrained = assemble_scalar(mesh, mass, constrain=False).sum(axis=1)
        np.testing.assert_allclose(
            lumped_mass(mesh, mass, constrain=False),
            np.asarray(unconstrained).ravel(),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_distributed_matches_assembled(self, p):
        def kernel(comm):
            pm = extract_parmesh(build_ptree(comm, 2, refine_seed=5))
            eq = ParAdvectionDiffusion(pm, 1e-4, rotating_velocity())
            sizes = pm.mesh.element_sizes()[pm.owned_elements]
            want = pm.exchange_sum(lumped_owned_assembled(pm, OPS.mass(sizes)))
            np.testing.assert_allclose(
                eq.ML[pm.active], want[pm.active], rtol=1e-14
            )
            return hanging_kinds(pm.mesh)

        assert all(kinds == {2, 4} for kinds in run_spmd(p, kernel))


class TestConstraintDeduplication:
    def test_matches_loop_on_a_mesh(self):
        mesh = extract_mesh(graded_tree(11, rounds=3).balance("corner")[0])
        raw = raw_constraints(mesh)
        # the mesh has both kinds and sees hanging nodes more than once
        assert set(raw[2]) == {0.5, 0.25}
        assert len(raw[0]) > len(_first_discovery(*raw)[0])
        for got, want in zip(_first_discovery(*raw), first_discovery_loop(*raw)):
            np.testing.assert_array_equal(got, want)

    def test_node_seen_as_edge_and_as_face_child(self):
        """Within one mesh a node is either an edge midpoint or a face
        center (its coordinates' trailing-zero pattern decides), so the
        mixed case is fed as raw rows: whichever block comes first wins,
        exactly as in the loop."""
        edge = (np.array([7, 7]), np.array([1, 2]), np.array([0.5, 0.5]))
        face = (np.full(4, 7), np.array([1, 2, 3, 4]), np.full(4, 0.25))
        other = (np.array([5, 5, 9, 9, 9, 9]), np.array([0, 1, 2, 3, 4, 6]),
                 np.array([0.5, 0.5, 0.25, 0.25, 0.25, 0.25]))
        cases = [((other, edge, face), 2), ((face, other, edge), 4), ((edge, face, edge), 2)]
        for blocks, rows_kept in cases:
            raw = [np.concatenate(cols) for cols in zip(*blocks)]
            got, want = _first_discovery(*raw), first_discovery_loop(*raw)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            assert (got[0] == 7).sum() == rows_kept

    def test_no_hanging_nodes(self):
        mesh = extract_mesh(Forest.uniform(unit_cube(), 2))
        raw = raw_constraints(mesh)
        assert all(len(col) == 0 for col in _first_discovery(*raw))


class TestTransportBuildIsAttributed:
    @pytest.mark.parametrize("entry", ["advance", "advance_time"])
    def test_build_inside_advection_phase_and_timer(self, entry):
        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.adapt(400)
            timer = obs.enable(comm)
            try:
                if entry == "advance":
                    pipe.advance(2)
                else:
                    pipe.advance_time(0.01)
            finally:
                obs.disable()
            return timer.results()

        res = run_spmd(1, kernel)[0]
        assert res["advection/build"]["count"] == 1
        assert res["advection"]["wall_s"] >= res["advection/build"]["wall_s"] > 0
