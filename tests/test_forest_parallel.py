"""Tests for the distributed forest (ParForest) — P-invariance against
the serial Forest for partition and adaptation, and against the
list-of-trees oracle for balance."""

import numpy as np
import pytest

from repro.forest import (
    FOREST_MAX_LEVEL,
    Forest,
    ParForest,
    brick_connectivity,
    cubed_sphere_connectivity,
    forest_key,
    unit_cube,
)
from repro.octree import ROOT_LEN, morton_encode, owners_of_keys
from repro.parallel import run_spmd

from .oracles.forest_balance import TreeListForest

PS = [1, 2, 4]


def forests_equal(a: Forest, b: Forest) -> bool:
    return np.array_equal(a.tree_ids, b.tree_ids) and a.octs.equals(b.octs)


#: composite key of a point just inside tree 0's +x face, mid-face
_FACE_POINT = forest_key(
    [0],
    morton_encode(
        np.array([ROOT_LEN - 1]), np.array([ROOT_LEN // 2]), np.array([ROOT_LEN // 2])
    ),
)[0]


class TestConstruction:
    @pytest.mark.parametrize("p", PS)
    def test_uniform_gather_matches_serial(self, p):
        conn = brick_connectivity(2, 1, 1)

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            return pf.gather()

        ref = Forest.uniform(conn, 1)
        for g in run_spmd(p, kernel):
            assert forests_equal(g, ref)

    def test_load_balance(self):
        conn = cubed_sphere_connectivity()

        def kernel(comm):
            return len(ParForest.uniform(comm, conn, 1))

        counts = run_spmd(5, kernel)
        assert sum(counts) == 24 * 8
        assert max(counts) - min(counts) <= 1

    def test_level_cap_enforced(self):
        conn = unit_cube()

        def kernel(comm):
            from repro.octree import OctantArray

            ParForest(comm, conn, np.zeros(1, dtype=np.int64),
                      OctantArray([0], [0], [0], [FOREST_MAX_LEVEL + 1]))

        with pytest.raises(ValueError):
            run_spmd(1, kernel)


class TestForestKey:
    def test_order_matches_tree_then_morton(self):
        t = np.array([0, 0, 1, 1])
        k = np.array([0, 100 * 64, 0, 64], dtype=np.uint64)
        fk = forest_key(t, k)
        assert np.all(np.diff(fk.astype(object)) > 0)

    def test_exact_for_level_19(self):
        """Anchors at level <= 19 are multiples of 64: no precision loss."""
        from repro.octree import OctantArray

        o = OctantArray.uniform(2)
        fk = forest_key(np.zeros(len(o)), o.keys())
        back = (fk << np.uint64(6)) & ((np.uint64(1) << np.uint64(63)) - np.uint64(1))
        np.testing.assert_array_equal(back, o.keys())


class TestAdaptation:
    @pytest.mark.parametrize("p", PS)
    def test_refine_matches_serial(self, p):
        conn = brick_connectivity(2, 1, 1)
        gmask = np.arange(16) % 3 == 0

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            lo, _ = comm.global_offsets(len(pf))
            pf = pf.refine(gmask[lo : lo + len(pf)])
            return pf.gather()

        ref = Forest.uniform(conn, 1).refine(gmask)
        for g in run_spmd(p, kernel):
            assert forests_equal(g, ref)

    def test_coarsen_local_families(self):
        conn = brick_connectivity(2, 1, 1)

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            pf, nfam = pf.coarsen(np.ones(len(pf), dtype=bool))
            return comm.allreduce(nfam), pf.gather()

        nfam, g = run_spmd(1, kernel)[0]
        assert nfam == 2
        assert len(g) == 2

    def test_coarsen_is_rank_count_invariant(self):
        """Families split by a partition marker merge too: the same marks
        give the same forest (and the serial ``Forest.coarsen``) on every
        rank count, non-powers of two included."""
        conn = cubed_sphere_connectivity()

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            pf, _ = pf.refine(pf.fkeys() % np.uint64(5) == 0).partition()
            pf, nfam = pf.coarsen(pf.tree_ids % 4 != 0)
            return comm.allreduce(nfam), pf.gather()

        nfam, ref = run_spmd(1, kernel)[0]
        serial = Forest.uniform(conn, 1)
        serial = serial.refine(serial.fkeys() % np.uint64(5) == 0)
        want, want_nfam = serial.coarsen(serial.tree_ids % 4 != 0)
        assert nfam == want_nfam > 0 and forests_equal(ref, want)
        for p in (2, 3, 5, 7):
            for n, g in run_spmd(p, kernel):
                assert n == nfam and forests_equal(g, ref)


class TestBalance:
    @staticmethod
    def _refine_at_tree_face(comm, conn, depth=3):
        """Refine tree 0's leaf nearest its +x face repeatedly."""
        pf = ParForest.uniform(comm, conn, 1)
        target = _FACE_POINT
        for _ in range(depth):
            fkeys = pf.fkeys()
            mask = np.zeros(len(pf), dtype=bool)
            idx = np.searchsorted(fkeys, target, side="right") - 1
            markers = pf.markers()
            if owners_of_keys(markers, np.array([target]))[0] == comm.rank and len(pf):
                mask[idx] = True
            pf = pf.refine(mask)
        return pf

    @pytest.mark.parametrize("p", PS)
    def test_cross_tree_balance_matches_serial(self, p):
        conn = brick_connectivity(2, 1, 1)

        def kernel(comm):
            pf = self._refine_at_tree_face(comm, conn)
            pf, added = pf.balance()
            return pf.gather(), added

        # reference: same refinement on a serial forest, oracle balance
        ref = Forest.uniform(conn, 1)
        for _ in range(3):
            mask = np.zeros(len(ref), dtype=bool)
            mask[np.searchsorted(ref.fkeys(), _FACE_POINT, side="right") - 1] = True
            ref = ref.refine(mask)
        ref_b, ref_added = TreeListForest.from_flat(ref).balance()
        for g, added in run_spmd(p, kernel):
            ref_b.assert_same_leaves(g)
            assert added == ref_added
            assert g.is_balanced()

    @pytest.mark.parametrize("p", [1, 3])
    def test_sphere_balance(self, p):
        conn = cubed_sphere_connectivity()
        rng_mask = np.random.default_rng(7).random(24 * 8) < 0.3

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            lo, _ = comm.global_offsets(len(pf))
            pf = pf.refine(rng_mask[lo : lo + len(pf)])
            pf, _ = pf.balance()
            return pf.gather()

        ref = TreeListForest.from_flat(Forest.uniform(conn, 1).refine(rng_mask))
        ref, _ = ref.balance()
        for g in run_spmd(p, kernel):
            ref.assert_same_leaves(g)
            assert g.is_balanced()


class TestPartition:
    def test_equalizes_counts_and_preserves_order(self):
        conn = brick_connectivity(2, 2, 1)

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            mask = np.zeros(len(pf), dtype=bool)
            if comm.rank == 0:
                mask[:] = True
            pf = pf.refine(mask)
            before = pf.gather()
            pf, _ = pf.partition()
            after = pf.gather()
            counts = comm.allgather(len(pf))
            return before, after, counts

        for before, after, counts in run_spmd(4, kernel):
            assert forests_equal(before, after)
            assert max(counts) - min(counts) <= 1

    def test_weighted_partition(self):
        conn = unit_cube()

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 2)
            lo, total = comm.global_offsets(len(pf))
            g = lo + np.arange(len(pf))
            w = np.where(g < total // 2, 10.0, 1.0)
            pf, _ = pf.partition(weights=w)
            return comm.allgather(len(pf))

        counts = run_spmd(4, kernel)[0]
        assert counts[0] < counts[-1]

    def test_histogram(self):
        conn = cubed_sphere_connectivity()

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            return pf.level_histogram()

        for h in run_spmd(3, kernel):
            assert h == {1: 192}
