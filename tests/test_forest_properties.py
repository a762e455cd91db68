"""The one forest against its references.

- ``Forest.{refine, coarsen, balance}`` on random adaptations of the unit
  cube, a 2 x 1 x 1 brick and the cubed sphere == the list-of-trees forest
  of ``tests/oracles/forest_balance.py`` (tree ids, anchors, levels,
  families merged, ``leaves_added``), for every balance connectivity;
- ``ParForest`` through the same adaptation at P in {1, 2, 3, 5, 7}
  gathers to the serial forest;
- on ``unit_cube()`` the forest *is* the octree: its refine, coarsen and
  balance give the leaves of re-sorted children, of the octree's family
  merge as it was before it became the forest's (``coarsen_families``)
  and of the Morton-key full sweep (``tests/oracles/balance.py``), and a
  leaf deeper than the forest keys cannot enter it;
- ``ParForest.coarsen`` makes one marker allgather and two all-to-alls
  per call whatever the tree count, and merges the families a partition
  marker splits;
- ``Forest(conn, tree_ids, octs)`` rejects what the algorithms assume away;
- the one curve cut (``repro.octree.partree.curve_cut``) through its three
  entry points: bad weights raise, an all-zero weighting is the
  equal-count cut, count and curve order survive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import (
    FOREST_MAX_LEVEL,
    Forest,
    ParForest,
    brick_connectivity,
    cubed_sphere_connectivity,
    unit_cube,
)
from repro.octree import OctantArray, gather_tree, new_tree
from repro.forest.forest import forest_key
from repro.octree.partree import (
    coarsen_tree,
    curve_cut,
    partition_tree,
    refine_tree,
    sfc_segment,
)
from repro.parallel import run_spmd

from .oracles.balance import balance_full_sweep
from .oracles.forest_balance import TreeListForest, coarsen_families

CONNS = {
    "cube": unit_cube(),
    "brick": brick_connectivity(2, 1, 1),
    "sphere": cubed_sphere_connectivity(),
}
CONNECTIVITIES = ["face", "edge", "corner"]
REFINE_ROUNDS, REFINE_FRAC, COARSEN_FRAC = 3, 0.15, 0.85


def adapt_serial(conn, seed, connectivity, check=lambda op, arg, result: None):
    """Random refine rounds, one random coarsen, then balance; ``check``
    sees the result of every step with the argument that produced it."""
    rng = np.random.default_rng(seed)
    f = Forest.uniform(conn, 1)
    for _ in range(REFINE_ROUNDS):
        mask = rng.random(len(f)) < REFINE_FRAC
        f = f.refine(mask)
        check("refine", mask, f)
    mask = rng.random(len(f)) < COARSEN_FRAC
    f, nfam = f.coarsen(mask)
    check("coarsen", mask, (f, nfam))
    f, added = f.balance(connectivity)
    check("balance", connectivity, (f, added))
    return f, nfam, added


class TestForestMatchesTreeList:
    @pytest.mark.parametrize("name", CONNS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), connectivity=st.sampled_from(CONNECTIVITIES))
    def test_refine_coarsen_balance(self, name, seed, connectivity):
        oracle = [TreeListForest.from_flat(Forest.uniform(CONNS[name], 1))]

        def check(op, arg, got):
            want = getattr(oracle[0], op)(arg)
            if op != "refine":
                want, count = want
                got, got_count = got
                assert got_count == count
            want.assert_same_leaves(got)
            oracle[0] = want

        f, _, _ = adapt_serial(CONNS[name], seed, connectivity, check)
        assert f.is_complete() and f.is_balanced(connectivity)
        assert oracle[0].is_balanced(connectivity)

    def test_balance_is_what_is_balanced_checks(self):
        f = Forest.uniform(CONNS["brick"], 1)
        for n in (1, 8):  # tree 0's first octant to level 3 beside level 1
            mask = np.zeros(len(f), dtype=bool)
            mask[:n] = True
            f = f.refine(mask)
        assert not f.is_balanced() and not TreeListForest.from_flat(f).is_balanced()
        with pytest.raises(RuntimeError, match="did not converge"):
            f.balance(max_rounds=0)


class TestParForestGathersToSerial:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("name", CONNS)
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**31), connectivity=st.sampled_from(CONNECTIVITIES))
    def test_same_forest_on_every_rank_count(self, name, p, seed, connectivity):
        conn = CONNS[name]

        def local(comm, pf, rng, frac):
            lo, total = comm.global_offsets(len(pf))
            return (rng.random(total) < frac)[lo : lo + len(pf)]

        def kernel(comm):
            rng = np.random.default_rng(seed)
            pf = ParForest.uniform(comm, conn, 1)
            for _ in range(REFINE_ROUNDS):
                pf, _ = pf.refine(local(comm, pf, rng, REFINE_FRAC)).partition()
            pf, nfam = pf.coarsen(local(comm, pf, rng, COARSEN_FRAC))
            pf, added = pf.balance(connectivity)
            return pf.gather(), comm.allreduce(nfam), added, pf.level_histogram()

        want, nfam, added = adapt_serial(conn, seed, connectivity)
        for g, n, a, hist in run_spmd(p, kernel):
            assert np.array_equal(g.tree_ids, want.tree_ids)
            assert g.octs.equals(want.octs)
            assert (n, a, hist) == (nfam, added, want.level_histogram())


class TestOctreeIsTheOneTreeCase:
    @pytest.mark.parametrize("connectivity", CONNECTIVITIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unit_cube_forest_equals_octree(self, seed, connectivity):
        rng = np.random.default_rng(seed)
        f = Forest.uniform(unit_cube(), 1)
        for _ in range(REFINE_ROUNDS):
            mask = rng.random(len(f)) < REFINE_FRAC
            leaves = OctantArray.concat([f.octs[~mask], f.octs[mask].children()]).sort()
            f = f.refine(mask)
            assert f.octs.equals(leaves)
        mask = rng.random(len(f)) < COARSEN_FRAC
        leaves, nt = coarsen_families(f.octs, mask)
        f, nf = f.coarsen(mask)
        assert nt == nf and f.octs.equals(leaves)
        want, added_w, _ = balance_full_sweep(f, connectivity)
        fb, added = f.balance(connectivity)
        assert added == added_w and fb.octs.equals(want.octs)
        assert not fb.tree_ids.any() and fb.is_complete()


class TestOneFamilyMerge:
    """COARSENTREE exists once, over forest keys: the distributed merge
    costs three collectives per call however many trees there are."""

    @pytest.mark.parametrize("p, calls", [(1, 0), (2, 3), (3, 3)])
    def test_sphere_collectives_per_call(self, p, calls):
        conn = cubed_sphere_connectivity()

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 2)
            before = comm.stats.total_collective_calls
            pf, nfam = pf.coarsen(np.ones(len(pf), dtype=bool))
            n = comm.stats.total_collective_calls - before
            return n, comm.allreduce(nfam), pf.gather()

        for n, nfam, g in run_spmd(p, kernel):
            assert (n, nfam) == (calls, 192)  # one merge per tree made 72 at P = 3
            assert g.octs.equals(Forest.uniform(conn, 1).octs)

    def test_one_tree_collectives_per_call(self):
        def kernel(comm):
            pt = new_tree(comm, 2)
            before = comm.stats.total_collective_calls
            pt, nfam = coarsen_tree(pt, np.ones(len(pt), dtype=bool))
            return comm.stats.total_collective_calls - before, comm.allreduce(nfam)

        assert run_spmd(3, kernel) == [(3, 8)] * 3

    def test_families_split_in_several_trees_merge(self):
        """At P = 5 the equal-count markers of the level-2 sphere split a
        family in four trees; every split family is merged, and the
        forest is the serial one."""
        conn, p = cubed_sphere_connectivity(), 5
        serial = Forest.uniform(conn, 2)
        starts = np.array([sfc_segment(len(serial), p, r)[0] for r in range(1, p)])
        split = starts[starts % 8 != 0] // 8 * 8  # first child of each split family
        assert len(np.unique(serial.tree_ids[split])) >= 2
        mask = np.random.default_rng(0).random(len(serial)) < 0.6
        mask[(split[:, None] + np.arange(8)).ravel()] = True
        want, nfam = serial.coarsen(mask)
        parents = serial.octs[split].parents()
        pfk = forest_key(serial.tree_ids[split], parents.keys())
        at = np.searchsorted(want.fkeys(), pfk)
        assert np.array_equal(want.octs.level[at], parents.level)

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 2)
            lo, _ = comm.global_offsets(len(pf))
            pf, n = pf.coarsen(mask[lo : lo + len(pf)])
            return pf.gather(), comm.allreduce(n)

        for g, n in run_spmd(p, kernel):
            assert np.array_equal(g.tree_ids, want.tree_ids) and g.octs.equals(want.octs)
            assert n == nfam

    def test_octree_deeper_than_the_forest_keys_raises(self):
        """The octree is the one-tree forest: leaves deeper than its keys
        encode cannot become a tree (a checkpoint's, say)."""
        deep = OctantArray.root()
        for _ in range(FOREST_MAX_LEVEL + 1):
            deep = deep.refine(np.arange(len(deep)) == 0)
        with pytest.raises(ValueError, match=f"levels <= {FOREST_MAX_LEVEL}"):
            Forest(unit_cube(), np.zeros(len(deep), dtype=np.int64), deep)


class TestForestRejectsMalformedSegments:
    conn = brick_connectivity(2, 1, 1)

    def test_accepts_any_contiguous_or_gappy_increasing_segment(self):
        octs = OctantArray.uniform(1)
        Forest(self.conn, np.ones(8), octs)
        Forest(self.conn, [0, 0, 1], octs[[1, 5, 2]])
        assert len(Forest(self.conn, [], OctantArray.empty())) == 0

    @pytest.mark.parametrize(
        "tree_ids, pick, match",
        [
            ([0, 0], [0, 1, 2], "one tree id per leaf"),
            ([0, 2], [0, 1], r"tree ids must lie in \[0, 2\)"),
            ([-1, 0], [0, 1], "tree ids must lie in"),
            ([0, 0], [3, 3], "strictly increasing"),
            ([0, 0], [4, 2], "strictly increasing"),
            ([1, 0], [0, 1], "strictly increasing"),
        ],
    )
    def test_bad_segments(self, tree_ids, pick, match):
        with pytest.raises(ValueError, match=match):
            Forest(self.conn, tree_ids, OctantArray.uniform(1)[pick])

    def test_level_cap(self):
        deep = OctantArray([0], [0], [0], [FOREST_MAX_LEVEL + 1])
        with pytest.raises(ValueError, match=f"levels <= {FOREST_MAX_LEVEL}"):
            Forest(self.conn, [0], deep)
        Forest(self.conn, [0], OctantArray([0], [0], [0], [FOREST_MAX_LEVEL]))

    def test_refine_past_the_level_cap_raises(self):
        """Children of a leaf at the cap would share one forest key: the
        serial refine and the distributed REFINETREE refuse to make them."""
        f = Forest.uniform(unit_cube(), 0)
        for _ in range(FOREST_MAX_LEVEL):
            f = f.refine(np.arange(len(f)) == 0)
        with pytest.raises(ValueError, match=f"levels <= {FOREST_MAX_LEVEL}"):
            f.refine(np.arange(len(f)) == 0)
        assert f.refine(np.arange(len(f)) == 8).is_complete()  # one level up

        def kernel(comm):
            pt = new_tree(comm, 0)
            for _ in range(FOREST_MAX_LEVEL):
                lo, _ = comm.global_offsets(len(pt))
                pt = refine_tree(pt, lo + np.arange(len(pt)) == 0)
            pt, _ = partition_tree(pt)
            refine_tree(pt, pt.octs.level == FOREST_MAX_LEVEL)

        with pytest.raises(ValueError, match=f"levels <= {FOREST_MAX_LEVEL}"):
            run_spmd(2, kernel)

    def test_overlapping_ancestor_is_not_increasing(self):
        """A leaf and its first child share an anchor key."""
        octs = OctantArray([0, 0], [0, 0], [0, 0], [1, 2])
        with pytest.raises(ValueError, match="strictly increasing"):
            Forest(self.conn, [0, 0], octs)


BAD_WEIGHTS = {"negative": -1.0, "nan": np.nan, "inf": np.inf}


class TestCurveCut:
    """Every leaf went to rank P - 1 on a zero or NaN total, and a negative
    weight gave a non-monotone destination that the callers' ``searchsorted``
    slicing then dropped or duplicated leaves from."""

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(1, 9),
        w=st.lists(st.floats(0, 1e6, allow_subnormal=False), min_size=0, max_size=40),
    )
    def test_destinations_are_monotone_and_in_range(self, p, w):
        w = np.array(w, dtype=np.float64)
        dest = curve_cut(p, len(w), w, (0, 0.0), (len(w), w.sum()))
        assert dest.shape == w.shape and np.all(np.diff(dest) >= 0)
        assert len(w) == 0 or (0 <= dest[0] and dest[-1] < p)

    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_forest_assignments_reject_bad_weights(self, p, bad):
        f = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        w = np.ones(len(f))
        w[5] = BAD_WEIGHTS[bad]
        with pytest.raises(ValueError, match="finite and non-negative"):
            f.partition_assignments(p, w)
        with pytest.raises(ValueError, match="finite and non-negative"):
            f.partition_assignments(p, np.full(len(f), BAD_WEIGHTS[bad]))
        with pytest.raises(ValueError, match="length mismatch"):
            f.partition_assignments(p, np.ones(3))

    @pytest.mark.parametrize("p", [1, 3])
    def test_forest_assignments_zero_total_is_equal_count(self, p):
        f = Forest.uniform(brick_connectivity(2, 1, 1), 1)
        got = f.partition_assignments(p, np.zeros(len(f)))
        np.testing.assert_array_equal(got, f.partition_assignments(p))
        assert np.bincount(got, minlength=p).min() >= len(f) // p

    @staticmethod
    def _partition_tree(comm, weights_of):
        pt = new_tree(comm, 2)
        new, _ = partition_tree(pt, weights_of(len(pt)))
        return gather_tree(pt).octs, gather_tree(new).octs, comm.allgather(len(new))

    @staticmethod
    def _partition_forest(comm, weights_of):
        pf = ParForest.uniform(comm, cubed_sphere_connectivity(), 1)
        new, _ = pf.partition(weights_of(len(pf)))
        return pf.gather().octs, new.gather().octs, comm.allgather(len(new))

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("entry", ["_partition_tree", "_partition_forest"])
    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_distributed_partition_rejects_bad_weights(self, entry, p, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_spmd(p, getattr(self, entry), lambda n: np.full(n, BAD_WEIGHTS[bad]))

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("entry", ["_partition_tree", "_partition_forest"])
    def test_distributed_partition_preserves_count_and_order(self, entry, p):
        kernel = getattr(self, entry)
        equal = run_spmd(p, kernel, lambda n: None)[0][2]
        assert max(equal) - min(equal) <= 1
        for before, after, counts in run_spmd(p, kernel, np.zeros):
            assert after.equals(before) and counts == equal
        ramp = run_spmd(p, kernel, lambda n: np.arange(n, dtype=np.float64))
        for before, after, counts in ramp:
            assert after.equals(before) and sum(counts) == len(before)
