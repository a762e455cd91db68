"""The DG face builder as a per-face loop over geometric containment
probes: what ``DGAdvection`` ran for every face before
``repro.forest.faces.match_faces``, and for every cross-tree face until
those joined the batched path.

For each (element, face) the centre of the same-size region beyond the
face is located by a top-down search (:func:`neighbor_leaf`, through the
lattice transform when it leaves the tree); a coarse face probes the
centre of each quarter, pushed a quarter length outward, for its four
fine neighbours.  One face instance is then built at a time: quadrature
points of the finer side, moved into the other tree's frame, located on
the other element's face (``facing_face`` finds *which* face by testing
the points), interpolated from there.

It shares the element geometry of the solver (``octs``, ``tree_ids``,
``kern``, ``_face_idx``) and nothing of the classification or the
batching, which is what the builder tests check, array for array.  The
probes do not notice a 2:1 violation across a tree face; ``match_faces``
does, and that difference is tested on its own.
"""

from __future__ import annotations

import numpy as np

from repro.forest import forest_key
from repro.mangll.lgl import lagrange_basis_at
from repro.octree import ROOT_LEN, morton_encode

_FACE_AXIS_SIDE = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def _leaf_in_tree(forest, tree: int, c: np.ndarray) -> np.ndarray:
    """Index within ``tree`` of the leaf holding each in-tree point."""
    fk = forest_key(np.full(len(c), tree), morton_encode(c[:, 0], c[:, 1], c[:, 2]))
    leaf = np.searchsorted(forest.fkeys(), fk, side="right") - 1
    return leaf - forest.tree_offsets()[tree]


def neighbor_leaf(forest, tree: int, coords: np.ndarray):
    """Resolve integer sample points that may exit ``tree`` through one
    face.  Returns ``(tree_ids, leaf_idx)``, the index counting within
    the tree; -1 where the point leaves the forest or exits diagonally."""
    coords = np.asarray(coords, dtype=np.int64)
    n = len(coords)
    out_tree = np.full(n, -1, dtype=np.int64)
    out_leaf = np.full(n, -1, dtype=np.int64)
    inside = np.all((coords >= 0) & (coords < ROOT_LEN), axis=1)
    if inside.any():
        c = coords[inside]
        out_tree[inside] = tree
        out_leaf[inside] = _leaf_in_tree(forest, tree, c)
    outside = ~inside
    if outside.any():
        c = coords[outside]
        viol = ((c < 0) | (c >= ROOT_LEN)).sum(axis=1)
        oi = np.flatnonzero(outside)
        for axis in range(3):
            for side in (0, 1):
                fc = forest.conn.face_connections[tree][2 * axis + side]
                sel = (viol == 1) & (
                    (c[:, axis] >= ROOT_LEN) if side else (c[:, axis] < 0)
                )
                if fc is None or not sel.any():
                    continue
                q = fc.transform(c[sel])
                out_tree[oi[sel]] = fc.neighbor_tree
                out_leaf[oi[sel]] = _leaf_in_tree(forest, fc.neighbor_tree, q)
    return out_tree, out_leaf


class LoopFaceBuilder:
    """Face instances of ``dg`` (a ``DGAdvection`` on ``forest``, built
    with wind ``velocity``), one face at a time."""

    def __init__(self, forest, dg, velocity):
        self.forest = forest
        self.dg = dg
        self.velocity = velocity
        self.offsets = forest.tree_offsets()
        self.lengths = dg.octs.lengths()
        self.anchors = np.stack([dg.octs.x, dg.octs.y, dg.octs.z], axis=1)

    # -- classification by probes ---------------------------------------------

    def neighbor_info(self, e: int, f: int):
        """``None`` (forest boundary), or a list of ``(neighbor, driver)``
        global element pairs, the driver being the finer side whose face
        points define the quadrature."""
        axis, side = _FACE_AXIS_SIDE[f]
        dg = self.dg
        tid = dg.tree_ids[e]
        h = int(self.lengths[e])
        anchor = self.anchors[e].astype(np.int64)
        lvl = int(dg.octs.level[e])
        d = np.zeros(3, dtype=np.int64)
        d[axis] = 1 if side else -1
        center = anchor + h // 2 + d * h
        t_nb, l_nb = neighbor_leaf(self.forest, tid, center[None, :])
        if t_nb[0] < 0:
            return None
        ge = self.offsets[t_nb[0]] + l_nb[0]
        nb_lvl = int(dg.octs.level[ge])
        if nb_lvl <= lvl:
            # conforming or I'm the fine side: my face drives
            return [(int(ge), e)]
        # I'm the coarse side: locate the 4 fine sub-neighbors
        out = []
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        for j2 in range(2):
            for j1 in range(2):
                # the center of each quarter of my face, pushed h/4 beyond
                # it, lands inside one of the 4 fine neighbors
                q = anchor + h // 2 + d * (h // 2 + h // 4)
                q[t1] = anchor[t1] + h // 4 + j1 * (h // 2)
                q[t2] = anchor[t2] + h // 4 + j2 * (h // 2)
                tq, lq = neighbor_leaf(self.forest, tid, q[None, :])
                if tq[0] < 0:
                    raise AssertionError("fine neighbor lookup failed")
                g = int(self.offsets[tq[0]] + lq[0])
                out.append((g, g))
        return out

    # -- one face instance ----------------------------------------------------

    def face_st(self, e: int, f: int, pts_tree: np.ndarray) -> np.ndarray:
        """Tree-frame float points on face f of element e -> that face's
        local (s, t) in [-1, 1]^2 (lower tangent axis first)."""
        axis, _ = _FACE_AXIS_SIDE[f]
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        h = float(self.lengths[e])
        loc = 2.0 * (pts_tree - self.anchors[e].astype(np.float64)) / h - 1.0
        st = np.stack([loc[:, t1], loc[:, t2]], axis=1)
        if np.any(np.abs(st) > 1 + 1e-9):
            raise AssertionError("face point outside element face")
        return np.clip(st, -1.0, 1.0)

    def interp_from_face(self, st: np.ndarray) -> np.ndarray:
        """(m, n2) interpolation from a face's nodal values (t1 fastest)
        to points ``st``."""
        nodes = self.dg.kern.nodes
        A = lagrange_basis_at(nodes, st[:, 0])  # (m, n) along t1
        B = lagrange_basis_at(nodes, st[:, 1])  # (m, n) along t2
        return np.einsum("ma,mb->mba", A, B).reshape(len(st), self.dg.n2)

    def face_quad_tree_coords(self, e: int, f: int) -> np.ndarray:
        """Tree-frame float coords of element e's face-f LGL nodes."""
        axis, side = _FACE_AXIS_SIDE[f]
        g = self.dg.kern.nodes
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        S2, S1 = np.meshgrid(g, g, indexing="ij")  # t2 slower, t1 faster
        ref = np.empty((self.dg.n2, 3), dtype=np.float64)
        ref[:, axis] = 1.0 if side else -1.0
        ref[:, t1] = S1.ravel()
        ref[:, t2] = S2.ravel()
        return self.dg._leaf_tree_coords(np.full(self.dg.n2, e), ref)

    def to_frame(self, tid_from: int, tid_to: int, pts: np.ndarray, via_face: int):
        """Float tree coords between adjacent tree frames (identity
        within a tree, lattice transform across the given face)."""
        if tid_from == tid_to:
            return pts
        fc = self.dg.conn.face_connections[tid_from][via_face]
        if fc is None or fc.neighbor_tree != tid_to:
            raise AssertionError("no face connection to target tree")
        R = np.array(fc.R, dtype=np.float64)
        o = np.array(fc.o, dtype=np.float64)
        return pts @ R.T + o

    def surface_metric(self, e: int, f: int, quad_tree: np.ndarray):
        """Surface Jacobian and outward unit normal at face quad points
        (given in e's tree frame), from element e's geometry."""
        axis, side = _FACE_AXIS_SIDE[f]
        Jt = self.dg.conn.tree_map_jacobian(self.dg.tree_ids[e], quad_tree / ROOT_LEN)
        hfrac = float(self.lengths[e]) / ROOT_LEN * 0.5
        J = Jt * hfrac
        detJ = np.linalg.det(J)
        Jinv = np.linalg.inv(J)
        nref = np.zeros(3, dtype=np.float64)
        nref[axis] = 1.0 if side else -1.0
        nvec = np.einsum("mkd,k->md", Jinv, nref) * detJ[:, None]
        sj = np.linalg.norm(nvec, axis=1)
        return sj, nvec / sj[:, None]

    def facing_face(self, ge: int, pts_in_nb_frame: np.ndarray) -> int:
        """Which face of element ge the points (in its tree's frame) lie on."""
        loc = (pts_in_nb_frame - self.anchors[ge].astype(np.float64)) / float(
            self.lengths[ge]
        )
        for axis in range(3):
            if np.all(np.abs(loc[:, axis]) < 1e-9):
                return 2 * axis
            if np.all(np.abs(loc[:, axis] - 1.0) < 1e-9):
                return 2 * axis + 1
        raise AssertionError("points not on any face of the neighbor")

    def build_face(self, e: int, f: int, interior: dict, bdry: dict) -> None:
        """Append the instance(s) of face f of element e, each array with
        a leading singleton axis, keyed ``e * 6 + f``."""
        dg, velocity = self.dg, self.velocity
        w2 = np.einsum("i,j->ij", dg.kern.weights, dg.kern.weights).ravel()
        tid = int(dg.tree_ids[e])
        info = self.neighbor_info(e, f)
        mine_nodes = e * dg.n3 + dg._face_idx[f]
        key = np.array([e * 6 + f], dtype=np.int64)
        if info is None:
            quad = self.face_quad_tree_coords(e, f)
            sj, normal = self.surface_metric(e, f, quad)
            xq = dg.conn.tree_map(tid, quad / ROOT_LEN)
            bdry["mine"].append(mine_nodes[None])
            bdry["wsj"].append((w2 * sj)[None])
            bdry["an"].append(np.einsum("md,md->m", velocity(xq), normal)[None])
            bdry["uin"].append(np.asarray(dg.inflow(xq))[None])
            bdry["key"].append(key)
            return
        for ge, driver in info:
            tid_nb = int(dg.tree_ids[ge])
            # my face's points in the neighbor's frame say which of its
            # faces is glued to mine (a coarse face covers the fine one)
            mine_nb = self.to_frame(tid, tid_nb, self.face_quad_tree_coords(e, f), f)
            fnb = self.facing_face(ge, mine_nb)
            if driver == e:
                # quadrature on my own face points
                quad = self.face_quad_tree_coords(e, f)
                M = self.interp_from_face(self.face_st(ge, fnb, mine_nb))
            else:
                # neighbor (fine side) drives: its face points
                quad_nb = self.face_quad_tree_coords(ge, fnb)
                quad = self.to_frame(tid_nb, tid, quad_nb, fnb)
                M = self.interp_from_face(self.face_st(e, f, quad))
            sj, normal = self.surface_metric(e, f, quad)
            xq = dg.conn.tree_map(tid, quad / ROOT_LEN)
            interior["mine"].append(mine_nodes[None])
            interior["nb"].append((ge * dg.n3 + dg._face_idx[fnb])[None])
            interior["M"].append(M[None])
            interior["drive"].append(np.array([driver == e], dtype=bool))
            interior["wsj"].append((w2 * sj)[None])
            interior["an"].append(np.einsum("md,md->m", velocity(xq), normal)[None])
            interior["key"].append(key)

    def face_instances(self) -> tuple[dict, dict]:
        """``(interior, boundary)`` in the layout and canonical (element,
        face, quadrant) order of ``DGAdvection._face_instances``."""
        n2 = self.dg.n2

        def field(*shape, dtype=np.float64):
            return [np.empty((0, *shape), dtype=dtype)]

        interior = {
            "mine": field(n2, dtype=np.int64), "nb": field(n2, dtype=np.int64),
            "M": field(n2, n2), "drive": field(dtype=bool),
            "wsj": field(n2), "an": field(n2), "key": field(dtype=np.int64),
        }
        bdry = {
            "mine": field(n2, dtype=np.int64), "wsj": field(n2), "an": field(n2),
            "uin": field(n2), "key": field(dtype=np.int64),
        }
        for e in range(self.dg.ne):
            for f in range(6):
                self.build_face(e, f, interior, bdry)
        # appended in key order already
        return tuple(
            {k: np.concatenate(v, axis=0) for k, v in d.items()}
            for d in (interior, bdry)
        )
