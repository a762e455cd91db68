"""The recursive forest algorithms (search-free ghost, low-collective
balance, sort-merge face iteration) against independent references.

- ghost layers (octants + owners) == the brute-force 26-adjacency set of
  the gathered tree: nothing missing, nothing extra;
- the one destination rule on the one-tree forest == the octree's own
  (``ghost_destinations`` of ``tests/oracles/balance.py``);
- distributed balance == the full-sweep ripple of
  ``tests/oracles/balance.py`` and the serial ``balance`` of the
  gathered tree / the list-of-trees balance of
  ``tests/oracles/forest_balance.py`` of the gathered forest, bitwise,
  and the forest's frontier ripple == its full sweep in per-call rounds
  and exchanges;
- the distributed mesh == the serial mesh of the gathered tree on every
  owned element (nodes, hanging flags, constraint rows, dof count);
- DG face classification and construction (array batches, in-tree and
  across trees) == the per-face probe loop of ``tests/oracles/dg_faces.py``,
  bitwise.

The randomized comparisons run across rank counts including
non-powers-of-two.
"""

import numpy as np
import pytest

from repro.forest import (
    Forest,
    ParForest,
    brick_connectivity,
    cubed_sphere_connectivity,
    forest_key,
    match_faces,
    unit_cube,
)
from repro.forest.recursive import _forest_destinations, balance_forest_recursive
from repro.mangll import DGAdvection
from repro.mesh import extract_mesh, node_keys
from repro.mesh.parmesh import UnbalancedTreeError, collect_ghosts, extract_parmesh
from repro.octree import (
    balance_tree,
    gather_tree,
    new_tree,
    owners_of_keys,
    partition_markers,
    refine_tree,
    row_lookup,
)
from repro.octree.partree import partition_tree
from repro.parallel import run_spmd

from .oracles.balance import balance_tree_full_sweep, ghost_destinations, morton_markers
from .oracles.forest_balance import TreeListForest, balance_forest_full_sweep
from .test_mangll_dg import assert_equals_loop_builder

PS = [1, 2, 3, 4, 7]


def build_ptree(comm, level=2, refine_seed=None, frac=0.3):
    """Random adaptive, corner-balanced, partitioned distributed tree."""
    pt = new_tree(comm, level)
    if refine_seed is not None:
        offset, total = comm.global_offsets(len(pt))
        rng = np.random.default_rng(refine_seed)
        gmask = rng.random(total) < frac
        pt = refine_tree(pt, gmask[offset : offset + len(pt)])
    pt, _, _ = balance_tree(pt, "corner")
    pt, _ = partition_tree(pt)
    return pt


def build_pforest(comm, conn, level=1, refine_seed=None, frac=0.3):
    pf = ParForest.uniform(comm, conn, level)
    if refine_seed is not None:
        counts = comm.allgather(len(pf))
        offset = sum(counts[: comm.rank])
        rng = np.random.default_rng(refine_seed)
        gmask = rng.random(sum(counts)) < frac
        pf = pf.refine(gmask[offset : offset + len(pf)])
    return pf


class TestLookupKernels:
    """row_lookup against brute-force references."""

    def test_row_lookup_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        # B rows deliberately unsorted, with duplicates in single columns
        b = [rng.integers(0, 6, 60), rng.integers(0, 6, 60)]
        a = [rng.integers(0, 6, 120), rng.integers(0, 6, 120)]
        got = row_lookup(a, b)
        for i in range(120):
            js = np.flatnonzero((b[0] == a[0][i]) & (b[1] == a[1][i]))
            if len(js) == 0:
                assert got[i] == -1
            else:
                assert got[i] in js

    def test_row_lookup_unique_rows_exact(self):
        b = [np.array([5, 1, 3]), np.array([0, 2, 1])]
        a = [np.array([3, 5, 4, 1]), np.array([1, 0, 4, 2])]
        np.testing.assert_array_equal(row_lookup(a, b), [2, 0, -1, 1])


def bruteforce_ghosts(pt):
    """``(keys, levels, owners)`` of every remote leaf of the gathered
    tree whose closed box touches (face, edge or corner) the closed box
    of a local leaf, sorted by key.  Collective."""
    g = gather_tree(pt)
    lv = g.octs
    lo = np.stack([lv.x, lv.y, lv.z], axis=1)
    hi = lo + lv.lengths()[:, None]
    is_local = np.isin(g.octs.keys(), pt.octs.keys())
    adjacent = np.zeros(len(lv), dtype=bool)
    for i in np.flatnonzero(is_local):
        adjacent |= np.all((lo <= hi[i]) & (hi >= lo[i]), axis=1)
    ghost = adjacent & ~is_local
    owners = owners_of_keys(partition_markers(pt), forest_key(0, g.octs.keys()[ghost]))
    return g.octs.keys()[ghost], lv.level[ghost], owners


def assert_ghosts_exact(pt):
    ghosts, owners = collect_ghosts(pt, partition_markers(pt))
    keys, levels, want_owners = bruteforce_ghosts(pt)
    np.testing.assert_array_equal(ghosts.keys(), keys)  # no missing, no extra
    np.testing.assert_array_equal(ghosts.level, levels)
    np.testing.assert_array_equal(owners, want_owners)


class TestRecursiveGhost:
    @pytest.mark.parametrize("p", PS)
    def test_bitwise_matches_search(self, p):
        """The reference is the exhaustive search over the gathered tree."""

        def kernel(comm):
            for seed in (3, 7, 11):
                assert_ghosts_exact(build_ptree(comm, 2, refine_seed=seed))
            return True

        assert all(run_spmd(p, kernel))

    def test_recursive_ghosts_complete_for_26_adjacency(self):
        """Equality with the brute-force 26-adjacency set at every rank
        count: every global leaf touching (face, edge, or corner) a local
        leaf is local or a ghost, nothing else is, and each ghost carries
        its owner."""

        def kernel(comm):
            assert_ghosts_exact(build_ptree(comm, 2, refine_seed=5))
            return True

        for p in PS:
            assert all(run_spmd(p, kernel))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_tree_destinations_are_the_octree_rule(self, p):
        """The forest rule on ``unit_cube()`` (reduced cells, composite
        keys) sends every leaf to exactly the ranks the octree rule did
        (finest cells, Morton keys), in the same order."""

        def kernel(comm):
            for seed in (3, 7):
                pf = build_ptree(comm, 2, refine_seed=seed)
                got = _forest_destinations(pf, pf.markers())
                want = ghost_destinations(pf.octs, morton_markers(comm, pf.octs), comm.rank)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
            return len(got[0])

        assert all(run_spmd(p, kernel))

    def test_sanitize_rejects_unbalanced_tree(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def kernel(comm):
            # refine toward the domain center (level 3 beside level 1),
            # never balance: a genuine corner 2:1 violation
            pt = new_tree(comm, 1)
            for idx in (0, 7):
                mask = np.zeros(len(pt), dtype=bool)
                if comm.rank == 0:
                    mask[idx] = True
                pt = refine_tree(pt, mask)
            collect_ghosts(pt, partition_markers(pt))

        with pytest.raises(UnbalancedTreeError) as exc:
            run_spmd(2, kernel)
        assert exc.value.violations > 0

    def test_sanitize_check_is_not_counted(self, monkeypatch):
        """The balance check's allgather is not charged to the tally."""

        def kernel(comm):
            pt = balance_tree(new_tree(comm, 2), "corner")[0]
            collect_ghosts(pt, partition_markers(pt))
            return comm.stats

        plain = run_spmd(2, kernel)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert run_spmd(2, kernel) == plain


class TestRecursiveBalance:
    @pytest.mark.parametrize("p", PS)
    def test_octree_bitwise_matches_ripple(self, p):
        """Against the full-sweep ripple oracle (same local trees, leaves
        added and exchanges) and the serial balance of the gathered tree."""

        def kernel(comm):
            for seed in (2, 9):
                pt = new_tree(comm, 2)
                offset, total = comm.global_offsets(len(pt))
                rng = np.random.default_rng(seed)
                gmask = rng.random(total) < 0.3
                pt = refine_tree(pt, gmask[offset : offset + len(pt)])
                want, added_w, exch_w, _ = balance_tree_full_sweep(pt, "corner")
                got, added, exchanges = balance_tree(pt, "corner")
                assert got.octs.equals(want)
                assert (added, exchanges) == (added_w, exch_w)
                assert exchanges <= 3
                serial, added_s = gather_tree(pt).balance("corner")
                assert gather_tree(got).octs.equals(serial.octs)
                assert added == added_s
            return True

        assert all(run_spmd(p, kernel))

    @pytest.mark.parametrize(
        "conn_factory",
        [cubed_sphere_connectivity, lambda: brick_connectivity(2, 1, 1)],
        ids=["cubed_sphere", "brick"],
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_forest_bitwise_matches_ripple(self, p, conn_factory):
        """Against the list-of-trees balance (per-tree full sweeps plus a
        per-face cross-tree pass) of the gathered forest."""
        conn = conn_factory()

        def kernel(comm):
            pf = build_pforest(comm, conn, 1, refine_seed=4)
            want, added_w = TreeListForest.from_flat(pf.gather()).balance("edge")
            got, added = pf.balance("edge")
            assert added == added_w
            return want, got.gather()

        for want, got in run_spmd(p, kernel):
            want.assert_same_leaves(got)


    @pytest.mark.parametrize(
        "conn_factory",
        [cubed_sphere_connectivity, lambda: brick_connectivity(2, 1, 1)],
        ids=["cubed_sphere", "brick"],
    )
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_forest_rounds_and_exchanges_match_full_sweep(self, p, conn_factory):
        """The frontier ripple against the full sweep it replaced, both
        inside the oracle's exchange loop: the same leaves, leaves added,
        exchanges and rounds per ripple call; ``ParForest.balance`` and
        the loop itself give those leaves too."""
        conn = conn_factory()

        def kernel(comm):
            pf = build_pforest(comm, conn, 1, refine_seed=4)
            for _ in range(2):
                pf = pf.refine(np.random.default_rng(comm.rank).random(len(pf)) < 0.2)
            for connectivity in ("face", "corner"):
                want, added_w, exch_w, rounds_w = balance_forest_full_sweep(pf, connectivity)
                _, _, _, rounds = balance_forest_full_sweep(pf, connectivity, Forest._ripple)
                got, added, exch = balance_forest_recursive(pf, connectivity)
                assert (added, exch, rounds) == (added_w, exch_w, rounds_w)
                assert got.octs.equals(want.octs)
                assert np.array_equal(got.tree_ids, want.tree_ids)
                public, added_p = pf.balance(connectivity)
                assert public.octs.equals(got.octs) and added_p == added
            return rounds

        assert any(max(r) > 1 for r in run_spmd(p, kernel))


class TestExtractEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_parmesh_identical_across_algorithms(self, p):
        """Parallel EXTRACTMESH against serial EXTRACTMESH of the gathered
        tree: on every owned element the union mesh has the serial mesh's
        nodes, hanging flags and constraint rows (compared through the
        globally unique node keys), and the global dof count is the
        serial one."""

        def kernel(comm):
            pt = build_ptree(comm, 2, refine_seed=3)
            pm = extract_parmesh(pt)
            ref = extract_mesh(gather_tree(pt))
            mesh = pm.mesh
            assert pm.n_global == ref.n_independent
            # union-mesh node -> serial-mesh node
            ref_keys = node_keys(ref.node_coords_int)
            order = np.argsort(ref_keys)
            to_ref = order[np.searchsorted(ref_keys[order], node_keys(mesh.node_coords_int))]
            np.testing.assert_array_equal(
                ref.node_coords_int[to_ref], mesh.node_coords_int
            )
            eidx = np.searchsorted(ref.leaves.keys(), mesh.leaves.keys()[pm.owned_elements])
            np.testing.assert_array_equal(
                to_ref[mesh.element_nodes[pm.owned_elements]], ref.element_nodes[eidx]
            )
            nodes = np.unique(mesh.element_nodes[pm.owned_elements])
            np.testing.assert_array_equal(mesh.hanging[nodes], ref.hanging[to_ref[nodes]])
            # constraint rows: same parents (as serial nodes), same weights
            Zu, Zr = mesh.Z[nodes].tocoo(), ref.Z[to_ref[nodes]].tocoo()
            pu = to_ref[mesh.indep_nodes[Zu.col]]
            pr = ref.indep_nodes[Zr.col]
            ou, orr = np.lexsort((pu, Zu.row)), np.lexsort((pr, Zr.row))
            np.testing.assert_array_equal(Zu.row[ou], Zr.row[orr])
            np.testing.assert_array_equal(pu[ou], pr[orr])
            np.testing.assert_array_equal(Zu.data[ou], Zr.data[orr])
            return True

        assert all(run_spmd(p, kernel))

    def test_serial_extract_mesh_identical(self):
        """The hanging-node classification against its definition: a node
        hangs iff it is the midpoint of an edge or the center of a face of
        some element (set membership, no lookup kernel), and the closed
        constraint rows reproduce a linear field."""
        rng = np.random.default_rng(6)
        tree = Forest.uniform(unit_cube(), 2)
        tree = tree.refine(rng.random(len(tree)) < 0.4).balance("corner")[0]
        mesh = extract_mesh(tree)
        lv = tree.octs
        h = lv.lengths()[:, None, None]
        anchors = np.stack([lv.x, lv.y, lv.z], axis=1)[:, None, :]
        # the 27-point lattice of each element minus its 8 corners and center
        offs = np.array(
            [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if 0 < (i == 1) + (j == 1) + (k == 1) < 3]
        )
        mids = (anchors + offs[None] * (h // 2)).reshape(-1, 3)
        want = np.isin(node_keys(mesh.node_coords_int), node_keys(mids))
        np.testing.assert_array_equal(mesh.hanging, want)
        assert want.any()
        coords = mesh.node_coords()
        f = 1.0 + coords @ np.array([2.0, -3.0, 0.5])
        np.testing.assert_allclose(mesh.Z @ f[mesh.indep_nodes], f, rtol=1e-14)


class TestDGFaceIteration:
    """``match_faces`` classification and the DG builder on top of it
    against the per-face probe loop, on a random state."""

    def _rates_equal(self, forest, p, velocity):
        dg = DGAdvection(forest, p=p, velocity=velocity)
        u = np.random.default_rng(0).standard_normal(dg.n_dof)
        assert_equals_loop_builder(forest, dg, velocity, u)

    def test_adapted_cube_bitwise(self):
        f = Forest.uniform(unit_cube(), 1)
        mask = np.zeros(len(f), dtype=bool)
        mask[0] = True
        f, _ = f.refine(mask).balance()

        def wind(x):
            return np.broadcast_to([1.0, 0.3, 0.2], x.shape).copy()

        self._rates_equal(f, 3, wind)

    def test_cubed_sphere_bitwise(self):
        from repro.mangll import solid_body_rotation

        conn = cubed_sphere_connectivity(r_inner=0.55, r_outer=1.0)
        f = Forest.uniform(conn, 1)
        self._rates_equal(f, 2, solid_body_rotation())

    @pytest.mark.parametrize(
        "conn", [unit_cube(), cubed_sphere_connectivity()], ids=["cube", "sphere"]
    )
    def test_classification_is_reciprocal(self, conn):
        """Each side of a face is classified from its own side, in-tree
        and across (rotated) gluings; the two views must agree."""
        rng = np.random.default_rng(3)
        f = Forest.uniform(conn, 1)
        f, _ = f.refine(rng.random(len(f)) < 0.3).balance()
        tids, octs = f.tree_ids, f.octs
        c = match_faces(tids, octs, conn)
        assert np.array_equal(c.idrive | c.coarse, c.valid)
        assert not (c.idrive & c.coarse).any()
        fnb = np.where(c.same, np.arange(6) ^ 1, conn.face_face[tids])
        assert np.array_equal(c.same[c.idrive], (tids[c.g_nb] == tids[:, None])[c.idrive])
        assert (c.valid & ~c.same).any() == (conn.n_trees > 1)
        # conforming: my neighbor's neighbor through the glued face is me
        lvl = octs.level.astype(np.int64)
        e, ff = np.nonzero(c.idrive & (lvl[c.g_nb] == lvl[:, None]))
        g = c.g_nb[e, ff]
        assert c.idrive[g, fnb[e, ff]].all()
        assert np.array_equal(c.g_nb[g, fnb[e, ff]], e)
        # mortar: every fine neighbor a coarse face lists names it back,
        # and every fine side is listed by its coarse neighbor exactly once
        e, ff = np.nonzero(c.coarse)
        assert len(e) and (~c.same[e, ff]).any() == (conn.n_trees > 1)
        for q in range(4):
            s = c.subs[e, ff, q]
            assert np.array_equal(lvl[s], lvl[e] + 1)
            assert np.array_equal(c.g_nb[s, fnb[e, ff]], e)
            assert c.idrive[s, fnb[e, ff]].all()
        fine = c.idrive & (lvl[c.g_nb] < lvl[:, None])
        assert fine.sum() == 4 * len(e)
        assert len(np.unique(c.subs[e, ff] * 6 + fnb[e, ff][:, None])) == 4 * len(e)


class TestMarkQuantization:
    def test_marks_invariant_under_exchange_noise(self):
        """The quantized thresholds must absorb the ~1e-11 relative
        rank-count-dependent FP noise of distributed indicators."""
        from repro.amr import mark_elements

        rng = np.random.default_rng(8)
        eta = rng.random(600)
        levels = np.full(600, 3)
        ref = mark_elements(eta, levels, target=1400)
        for seed in range(5):
            noise = 1 + 1e-11 * np.random.default_rng(seed).standard_normal(600)
            res = mark_elements(eta * noise, levels, target=1400)
            np.testing.assert_array_equal(res.refine, ref.refine)
            np.testing.assert_array_equal(res.coarsen, ref.coarsen)
