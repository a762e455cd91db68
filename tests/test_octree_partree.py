"""Tests for the distributed octree (repro.octree.partree), the one-tree
``ParForest``.

The central invariant is *P-invariance*: every parallel tree operation
must produce the identical global tree for any rank count, matching the
serial algorithms.
"""

import numpy as np
import pytest

from repro.forest import forest_key
from repro.octree import (
    LinearOctree,
    balance,
    balance_tree,
    coarsen_tree,
    gather_tree,
    is_balanced,
    new_tree,
    owners_of_keys,
    partition_markers,
    partition_tree,
    refine_tree,
)
from repro.parallel import run_spmd

PS = [1, 2, 4, 7]


def spmd(p, fn, *args):
    return run_spmd(p, fn, *args)


class TestNewTree:
    @pytest.mark.parametrize("p", PS)
    def test_global_tree_matches_serial(self, p):
        def kernel(comm):
            pt = new_tree(comm, 2)
            return gather_tree(pt)

        out = spmd(p, kernel)
        serial = LinearOctree.uniform(2)
        for t in out:
            assert t.leaves.equals(serial.leaves)

    @pytest.mark.parametrize("p", [3, 5])
    def test_load_balanced(self, p):
        def kernel(comm):
            return len(new_tree(comm, 2))

        counts = spmd(p, kernel)
        assert sum(counts) == 64
        assert max(counts) - min(counts) <= 1

    def test_global_count_and_offset(self):
        """Every rank counts all leaves, and the segments follow each other
        along the curve in rank order."""

        def kernel(comm):
            pt = new_tree(comm, 2)
            offset = comm.exscan(len(pt))
            return pt.global_count(), offset, pt.octs.keys()

        out = spmd(4, kernel)
        assert all(o[0] == 64 for o in out)
        serial = LinearOctree.uniform(2).keys
        for _, offset, keys in out:
            np.testing.assert_array_equal(keys, serial[offset : offset + len(keys)])


class TestPartitionMarkers:
    def test_markers_route_keys_to_owners(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            markers = partition_markers(pt)
            # every rank checks that its own first/last keys map back to it
            if len(pt):
                owners = owners_of_keys(markers, pt.fkeys()[[0, -1]])
                return owners.tolist() == [comm.rank, comm.rank]
            return True

        assert all(spmd(4, kernel))

    def test_empty_rank_owns_nothing(self):
        def kernel(comm):
            # put everything on rank 0 by building a tiny tree on 4 ranks
            pt = new_tree(comm, 0)  # 1 leaf total
            markers = partition_markers(pt)
            owners = owners_of_keys(markers, np.array([0, 12345], dtype=np.uint64))
            return owners.tolist()

        out = spmd(4, kernel)
        for o in out:
            assert o == [0, 0]


class TestRefineCoarsenParallel:
    @pytest.mark.parametrize("p", PS)
    def test_refine_matches_serial(self, p):
        def kernel(comm):
            pt = new_tree(comm, 2)
            offset = comm.exscan(len(pt))
            gmask = np.arange(64) % 3 == 0
            pt = refine_tree(pt, gmask[offset : offset + len(pt)])
            return gather_tree(pt)

        serial = LinearOctree.uniform(2).refine(np.arange(64) % 3 == 0)
        for t in spmd(p, kernel):
            assert t.leaves.equals(serial.leaves)

    def test_coarsen_local_families(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            pt, nfam = coarsen_tree(pt, np.ones(len(pt), dtype=bool))
            return gather_tree(pt), comm.allreduce(nfam)

        # on 1 rank all 8 families coarsen -> uniform level 1
        (t, nfam), = spmd(1, kernel)
        assert nfam == 8
        assert t.leaves.equals(LinearOctree.uniform(1).leaves)

    def test_coarsen_resolves_split_families(self):
        def kernel(comm):
            pt = new_tree(comm, 1)  # 8 leaves over 3 ranks: family split
            pt, nfam = coarsen_tree(pt, np.ones(len(pt), dtype=bool))
            return comm.allreduce(nfam), gather_tree(pt)

        out = spmd(3, kernel)
        nfam, t = out[0]
        assert nfam == 1  # split family is still coarsened (P-invariance)
        assert len(t) == 1 and t.levels[0] == 0


class TestBalanceParallel:
    @staticmethod
    def _unbalanced_kernel(comm, depth=4):
        """Refine toward the domain center on whichever rank holds it
        (center refinement creates genuine 2:1 violations; see the serial
        balance tests for why domain corners do not)."""
        from repro.octree import ROOT_LEN, morton_encode

        mid = ROOT_LEN // 2
        ckey = morton_encode(np.array([mid]), np.array([mid]), np.array([mid]))
        pt = new_tree(comm, 1)
        for _ in range(depth):
            markers = partition_markers(pt)
            owner = owners_of_keys(markers, forest_key(0, ckey))[0]
            mask = np.zeros(len(pt), dtype=bool)
            if comm.rank == owner and len(pt):
                idx = np.searchsorted(pt.octs.keys(), ckey[0], side="right") - 1
                mask[idx] = True
            pt = refine_tree(pt, mask)
        return pt

    @pytest.mark.parametrize("p", PS)
    def test_balance_matches_serial(self, p):
        def kernel(comm):
            pt = self._unbalanced_kernel(comm)
            pt, added, rounds = balance_tree(pt)
            return gather_tree(pt), added, rounds

        # serial reference
        def serial_tree():
            from repro.octree import ROOT_LEN

            mid = ROOT_LEN // 2
            t = LinearOctree.uniform(1)
            for _ in range(4):
                mask = np.zeros(len(t), dtype=bool)
                idx = t.find_containing(
                    np.array([mid]), np.array([mid]), np.array([mid])
                )[0]
                mask[idx] = True
                t = t.refine(mask)
            return t

        ref = balance(serial_tree())
        for t, added, rounds in spmd(p, kernel):
            assert t.leaves.equals(ref.tree.leaves)
            assert added == ref.leaves_added
            assert is_balanced(t)

    @pytest.mark.parametrize("connectivity", ["face", "edge", "corner"])
    def test_connectivities(self, connectivity):
        def kernel(comm):
            pt = self._unbalanced_kernel(comm, depth=3)
            pt, _, _ = balance_tree(pt, connectivity)
            return gather_tree(pt)

        for t in spmd(3, kernel):
            assert is_balanced(t, connectivity)
            assert t.is_complete()


class TestPartitionTree:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_partition_equalizes_counts(self, p):
        def kernel(comm):
            pt = new_tree(comm, 2)
            # refine only rank 0's leaves -> severe imbalance
            mask = np.zeros(len(pt), dtype=bool)
            if comm.rank == 0:
                mask[:] = True
            pt = refine_tree(pt, mask)
            before = comm.allgather(len(pt))
            pt, plan = partition_tree(pt)
            after = comm.allgather(len(pt))
            return before, after, gather_tree(pt)

        for before, after, t in spmd(p, kernel):
            assert max(after) - min(after) <= 1
            assert sum(after) == sum(before)
            assert t.is_complete()

    def test_partition_preserves_global_order(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            mask = np.zeros(len(pt), dtype=bool)
            if comm.rank == 1:
                mask[:] = True
            pt = refine_tree(pt, mask)
            g_before = gather_tree(pt)
            pt, _ = partition_tree(pt)
            g_after = gather_tree(pt)
            return g_before, g_after

        for g_before, g_after in spmd(4, kernel):
            assert g_before.leaves.equals(g_after.leaves)

    def test_transfer_plan_routes_element_data(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            offset = comm.exscan(len(pt))
            data = offset + np.arange(len(pt), dtype=np.float64)
            mask = np.zeros(len(pt), dtype=bool)
            if comm.rank == 0:
                mask[:] = True
            # NOTE: refine would invalidate per-element data; partition only
            pt2, plan = partition_tree(pt)
            new_data = plan.transfer(comm, data)
            assert len(new_data) == len(pt2)
            # global concatenation in rank order must be 0..63
            return comm.allgather(new_data)

        out = spmd(4, kernel)
        full = np.concatenate(out[0])
        np.testing.assert_array_equal(full, np.arange(64, dtype=np.float64))

    def test_weighted_partition(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            offset = comm.exscan(len(pt))
            # weight 10 for first half of curve, 1 for the rest
            gw = np.where(np.arange(64) < 32, 10.0, 1.0)
            w = gw[offset : offset + len(pt)]
            pt, _ = partition_tree(pt, weights=w)
            return len(pt), gather_tree(pt)

        out = spmd(4, kernel)
        counts = [o[0] for o in out]
        # heavy ranks get fewer leaves; order preserved
        assert counts[0] < counts[-1]
        assert out[0][1].is_complete()

    def test_weights_length_checked(self):
        def kernel(comm):
            pt = new_tree(comm, 1)
            partition_tree(pt, weights=np.ones(len(pt) + 1))

        with pytest.raises(ValueError):
            spmd(2, kernel)
