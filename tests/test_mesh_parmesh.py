"""Tests for distributed mesh extraction (parallel EXTRACTMESH).

The key invariant is P-invariance: global dof counts, assembled values,
and interpolation results must be identical for any rank count.
"""

import numpy as np
import pytest

from repro.forest import Forest, forest_key, unit_cube
from repro.mesh import extract_mesh
from repro.mesh.parmesh import collect_ghosts, extract_parmesh, par_interpolate_at
from repro.octree import (
    ROOT_LEN,
    balance_tree,
    gather_tree,
    new_tree,
    partition_markers,
    refine_tree,
)
from repro.octree.partree import partition_tree
from repro.parallel import run_spmd

from .oracles.forest_balance import find_leaf

PS = [1, 2, 3, 5]


def build_ptree(comm, level=2, refine_seed=None):
    """Balanced, partitioned distributed test tree."""
    pt = new_tree(comm, level)
    if refine_seed is not None:
        offset, total = comm.global_offsets(len(pt))
        rng = np.random.default_rng(refine_seed)
        gmask = rng.random(total) < 0.3
        pt = refine_tree(pt, gmask[offset : offset + len(pt)])
    pt, _, _ = balance_tree(pt, "corner")
    pt, _ = partition_tree(pt)
    return pt


def serial_reference(level=2, refine_seed=None):
    tree = Forest.uniform(unit_cube(), level)
    if refine_seed is not None:
        rng = np.random.default_rng(refine_seed)
        tree = tree.refine(rng.random(len(tree)) < 0.3)
    return tree.balance("corner")[0]


class TestCollectGhosts:
    def test_single_rank_no_ghosts(self):
        def kernel(comm):
            pt = build_ptree(comm, 2)
            ghosts, owners = collect_ghosts(pt, partition_markers(pt))
            return len(ghosts)

        assert run_spmd(1, kernel) == [0]

    @pytest.mark.parametrize("p", [2, 4])
    def test_ghosts_are_adjacent_remote_leaves(self, p):
        def kernel(comm):
            pt = build_ptree(comm, 2)
            markers = partition_markers(pt)
            ghosts, owners = collect_ghosts(pt, markers)
            # every ghost is remote
            from repro.octree import owners_of_keys

            gowner = owners_of_keys(markers, forest_key(0, ghosts.keys()))
            assert np.all(gowner != comm.rank)
            np.testing.assert_array_equal(gowner, owners)
            # ghosts are valid octants of the global tree
            g = gather_tree(pt)
            pos = np.searchsorted(g.octs.keys(), ghosts.keys())
            assert np.array_equal(g.octs.keys()[pos], ghosts.keys())
            return True

        assert all(run_spmd(p, kernel))

    def test_ghost_completeness_for_adjacency(self):
        """Every global leaf that touches (26-adjacency) a local leaf is
        either local or a ghost."""

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=7)
            ghosts, _ = collect_ghosts(pt, partition_markers(pt))
            g = gather_tree(pt)
            # brute force adjacency on the gathered tree
            local_keys = set(pt.octs.keys().tolist())
            union_keys = local_keys | set(ghosts.keys().tolist())
            lv = g.octs
            h = lv.lengths()
            lo = np.stack([lv.x, lv.y, lv.z], axis=1)
            hi = lo + h[:, None]
            is_local = np.isin(g.octs.keys(), pt.octs.keys())
            missing = 0
            for i in np.flatnonzero(is_local):
                touch = np.all((lo <= hi[i]) & (hi >= lo[i]), axis=1)
                for j in np.flatnonzero(touch):
                    if int(g.octs.keys()[j]) not in union_keys:
                        missing += 1
            return missing

        out = run_spmd(3, kernel)
        assert all(m == 0 for m in out)


class TestExtractParmesh:
    @pytest.mark.parametrize("p", PS)
    def test_global_dof_count_matches_serial(self, p):
        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=3)
            pm = extract_parmesh(pt)
            return pm.n_global

        ref = extract_mesh(serial_reference(2, refine_seed=3))
        for n in run_spmd(p, kernel):
            assert n == ref.n_independent

    @pytest.mark.parametrize("p", [2, 4])
    def test_owned_elements_partition_globally(self, p):
        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=1)
            pm = extract_parmesh(pt)
            return comm.allreduce(pm.n_owned_elements), comm.allreduce(len(pt))

        for n_owned, n_tree in run_spmd(p, kernel):
            assert n_owned == n_tree

    @pytest.mark.parametrize("p", [3])
    def test_global_ids_consistent_across_ranks(self, p):
        """The same physical node must get the same global id everywhere."""

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=5)
            pm = extract_parmesh(pt)
            from repro.mesh import node_keys

            nk = node_keys(pm.mesh.node_coords_int[pm.mesh.indep_nodes])
            sel = pm.global_dof >= 0
            return comm.allgather(
                np.stack([nk[sel].astype(np.float64), pm.global_dof[sel]], axis=1)
            )

        out = run_spmd(p, kernel)
        table = {}
        for part in out[0]:
            for key, gid in part:
                if key in table:
                    assert table[key] == gid
                else:
                    table[key] = gid

    def test_exchange_sum_assembles_counts(self):
        """Summing 1-per-owned-element-touch over ranks equals the serial
        node valence."""

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=2)
            pm = extract_parmesh(pt)
            mesh = pm.mesh
            counts = np.zeros(mesh.n_independent)
            en = mesh.element_nodes[pm.owned_elements]
            dofs = mesh.dof_of_node[en.ravel()]
            np.add.at(counts, dofs[dofs >= 0], 1.0)
            total = pm.exchange_sum(counts)
            # each global dof once, from its owner
            mine = pm.node_owner[mesh.indep_nodes] == comm.rank
            return np.concatenate(comm.allgather(total[mine]))

        ref = extract_mesh(serial_reference(2, refine_seed=2))
        ref_counts = np.zeros(ref.n_independent)
        dofs = ref.dof_of_node[ref.element_nodes.ravel()]
        np.add.at(ref_counts, dofs[dofs >= 0], 1.0)

        for p in [1, 2, 4]:
            out = run_spmd(p, kernel)
            # compare as multisets via sorted values (global id orderings
            # differ from serial dof numbering)
            for g in out:
                np.testing.assert_allclose(np.sort(g), np.sort(ref_counts))

    def test_consistent_overwrites_with_owner_value(self):
        def kernel(comm):
            pt = build_ptree(comm, 1)
            pm = extract_parmesh(pt)
            vals = np.full(pm.mesh.n_independent, float(comm.rank))
            out = pm.consistent(vals)
            # every active dof now carries its owner's rank id
            dof_owner = pm.node_owner[pm.mesh.indep_nodes]
            sel = pm.active
            return bool(np.all(out[sel] == dof_owner[sel]))

        assert all(run_spmd(3, kernel))


class TestNodeOwners:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_owner_is_the_rank_of_the_containing_leaf(self, p):
        """Under a weighted partition that leaves ranks empty, every node
        of every rank's mesh is owned by the rank whose leaf contains the
        node's clamped position, found among the gathered leaves."""

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=6)
            offset, total = comm.global_offsets(len(pt))
            w = np.ones(len(pt))
            w[offset + np.arange(len(pt)) == total - 1] = total  # the last leaf outweighs the rest
            pt, _ = partition_tree(pt, weights=w)
            pm = extract_parmesh(pt)
            leaf_rank = np.repeat(np.arange(comm.size), comm.allgather(len(pt)))
            c = np.minimum(pm.mesh.node_coords_int, ROOT_LEN - 1)
            want = leaf_rank[find_leaf(gather_tree(pt).octs, c[:, 0], c[:, 1], c[:, 2])]
            np.testing.assert_array_equal(pm.node_owner, want)
            return len(pt)

        assert run_spmd(p, kernel)[-1] == 0  # the last rank owns nothing


class TestParInterpolate:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_linear_field_interpolation(self, p):
        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=4)
            pm = extract_parmesh(pt)
            mesh = pm.mesh
            coords = mesh.node_coords()
            u_full = coords @ np.array([1.0, -2.0, 0.5]) + 3.0
            rng = np.random.default_rng(100 + comm.rank)
            pts = rng.random((20, 3))
            vals = par_interpolate_at(pm, u_full, pts)
            expect = pts @ np.array([1.0, -2.0, 0.5]) + 3.0
            np.testing.assert_allclose(vals, expect, atol=1e-9)
            return True

        assert all(run_spmd(p, kernel))
