"""Nodal discontinuous Galerkin advection on forests of octrees.

The MANGLL layer of Section VII: arbitrary-order nodal DG on hexahedral
spectral elements with LGL collocation (diagonal mass), upwind numerical
fluxes, and nonconforming (2:1) faces handled by a *face integration mesh*:
the surface integral of a coarse-fine face pair is evaluated on the finer
side's quadrature points, with both traces interpolated there and the
coarse-side lift applied through the transpose of the interpolation — the
paper's "integrates the contributions from each smaller face individually".

Geometry is the trilinear map of each connectivity tree composed with the
leaf's scaling, so the same code runs on the unit cube, multiblock bricks,
and the 24-tree cubed-sphere shell.

Face-node correspondence across trees (including rotated coordinate
systems between cubed-sphere caps) is resolved with the exact lattice
transforms of the connectivity; interpolation matrices are generic tensor
Lagrange evaluations, so conforming faces, rotated faces, and mortar faces
are all instances of the same mechanism.

That mechanism is how faces are *built*.  :meth:`DGAdvection.rate` applies
them by class from static tables made once per forest (DESIGN.md section
4j): a conforming face is a gather through a permuted index, only the two
sides of a 2:1 mortar keep an interpolation operator, and every weight
that does not depend on the field is folded in beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import obs
from ..forest import Connectivity, Forest, match_faces
from ..octree import OctantArray, ROOT_LEN
from ..solvers.timestep import LowStorageRK45
from .lgl import lagrange_basis_at
from .tensor import DerivativeKernel

__all__ = ["DGAdvection", "solid_body_rotation"]

_FACE_AXIS_SIDE = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def solid_body_rotation(omega=(0.0, 0.0, 1.0)) -> Callable[[np.ndarray], np.ndarray]:
    """Velocity field ``a(x) = omega x x`` — divergence-free and tangent to
    spheres, the natural test wind for the spherical shell."""
    om = np.asarray(omega, dtype=np.float64)

    def a(x: np.ndarray) -> np.ndarray:
        return np.cross(np.broadcast_to(om, x.shape), x)

    return a


def _face_node_indices(n: int) -> list[np.ndarray]:
    """For each of the 6 faces, the n^2 indices into the flattened n^3
    element node block, ordered with the lower tangent axis fastest."""
    idx3 = np.arange(n**3).reshape(n, n, n)  # [t, s, r] = [z, y, x]
    out = []
    for axis, side in _FACE_AXIS_SIDE:
        sl = [slice(None)] * 3
        sl[2 - axis] = -1 if side else 0  # array axes are (z, y, x)
        sub = idx3[tuple(sl)]  # 2-D, remaining axes in (slower, faster) order
        out.append(np.ascontiguousarray(sub).ravel())
    return out


#: a driving face's neighbor operator counts as a permutation when it is
#: within this of a 0/1 matrix (node matching is evaluated in floating
#: point and lands ~1e-16 off; a mortar operator is ~0.5 off)
_PERM_TOL = 1e-12


@dataclass
class _FaceBatch:
    """Static operands of the surface term of :meth:`DGAdvection.rate`.

    Face instances are grouped by class, in this order: *conforming*
    (``nc``), *fine* side of a mortar (``nf``), *coarse* side (``ncs``),
    *boundary* (``nbd``); the array lengths carry the counts.  Quadrature
    weight, surface Jacobian, the upwind switch ``min(a.n, 0)``, the
    inverse mass and the sign of the lift are folded into ``w``, ``lift``,
    ``wb`` and ``gb``, so ``rate`` adds ``bincount(mine, flux)`` and
    applies no other factor.
    """

    mine: np.ndarray   # (ni * n2,) node receiving each flux entry, all classes
    nb: np.ndarray     # ((nc + nf + ncs) * n2,) neighbor node; conforming rows
                       # already carry the face permutation
    w: np.ndarray      # (nc + nf, n2) weight of (u+ - u-) at my face nodes
    Mn: np.ndarray     # (nf, n2, n2) coarse neighbor's nodes -> my face nodes
    Mq: np.ndarray     # (ncs, n2, n2) my face nodes -> fine neighbor's nodes
    lift: np.ndarray   # (ncs, n2, n2) weighted Mq^T: jump at the fine nodes -> my nodes
    wb: np.ndarray     # (nbd, n2) weight of -u- on boundary faces
    gb: np.ndarray     # (nbd, n2) wb * inflow trace
    coarse_faces: int  # distinct (element, face) pairs behind the ncs instances


class DGAdvection:
    """Semi-discrete DG advection operator ``du/dt = L(u)`` on a forest.

    Parameters
    ----------
    forest:
        A complete, 2:1 balanced forest.
    p:
        Polynomial order (>= 1).
    velocity:
        Callable ``a(x)`` mapping (m, 3) points to (m, 3) velocities;
        evaluated once at setup (static wind).
    inflow:
        Callable giving the exterior trace on forest-boundary faces
        (default zero).
    batch_faces:
        When True (default), same-tree faces are classified by
        descriptor sort-merge joins (:func:`repro.forest.faces.match_faces`)
        and built with array operations; only cross-tree faces go through
        the per-face loop.  False forces the per-face loop everywhere —
        the pre-vectorization path, kept as the equivalence oracle.
    """

    def __init__(
        self,
        forest: Forest,
        p: int,
        velocity: Callable[[np.ndarray], np.ndarray],
        inflow: Callable[[np.ndarray], np.ndarray] | None = None,
        batch_faces: bool = True,
    ):
        self.forest = forest
        self.conn: Connectivity = forest.conn
        self.p = p
        self.batch_faces = batch_faces
        self.kern = DerivativeKernel(p)
        n = p + 1
        self.n = n
        self.n3 = n**3
        self.n2 = n**2
        self.inflow = inflow or (lambda x: np.zeros(len(x), dtype=np.float64))

        # flatten elements
        self.tree_ids = forest.leaf_tree_ids()
        self.octs = OctantArray.concat([t.leaves for t in forest.trees])
        self.ne = len(self.octs)
        self._offsets = forest.tree_offsets()

        self._face_idx = _face_node_indices(n)
        with obs.phase("dg/setup"):
            with obs.phase("geometry"):
                self._build_geometry(velocity)
            with obs.phase("faces"):
                interior, bdry = self._face_instances(velocity)
            with obs.phase("rate_tables"):
                self._finalize_faces(interior, bdry)
            for name, count in self.face_census().items():
                obs.counter(f"dg_faces_{name}", count)
        self._rk = LowStorageRK45()

    # -- geometry -----------------------------------------------------------------

    def _leaf_tree_coords(self, eids: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Map per-element reference points (m, 3) in [-1,1]^3 of elements
        ``eids`` to tree-frame coordinates in [0, 1]^3 * ROOT_LEN floats.

        ``ref`` may be (m, 3) with one row per entry of ``eids``.
        """
        h = self.octs.lengths()[eids].astype(np.float64)
        anchors = np.stack(
            [self.octs.x[eids], self.octs.y[eids], self.octs.z[eids]], axis=1
        ).astype(np.float64)
        return anchors + (ref + 1.0) * 0.5 * h[:, None]

    def _build_geometry(self, velocity) -> None:
        n, n3, ne = self.n, self.n3, self.ne
        g = self.kern.nodes  # 1-D LGL on [-1, 1]
        # volume node reference coords, C order [t, s, r]
        T, S, R = np.meshgrid(g, g, g, indexing="ij")
        ref = np.stack([R.ravel(), S.ravel(), T.ravel()], axis=1)  # (n3, 3)
        eids = np.repeat(np.arange(ne), n3)
        ref_all = np.tile(ref, (ne, 1))
        tree_coords = self._leaf_tree_coords(eids, ref_all) / ROOT_LEN  # in [0,1]
        # physical nodes + tree Jacobians, tree by tree
        self.x = np.empty((ne * n3, 3), dtype=np.float64)
        Jtree = np.empty((ne * n3, 3, 3), dtype=np.float64)
        tids_pernode = np.repeat(self.tree_ids, n3)
        for t in np.unique(self.tree_ids):
            sel = tids_pernode == t
            self.x[sel] = self.conn.tree_map(t, tree_coords[sel])
            Jtree[sel] = self.conn.tree_map_jacobian(t, tree_coords[sel])
        # compose with leaf scaling: d(tree_ref)/d(leaf_local) = h_frac / 2
        hfrac = (self.octs.lengths().astype(np.float64) / ROOT_LEN)[eids] * 0.5
        J = Jtree * hfrac[:, None, None]
        self.detJ = np.linalg.det(J)
        if np.any(self.detJ <= 0):
            raise AssertionError("non-positive element Jacobian")
        self.Jinv = np.linalg.inv(J)  # rows: d(ref_k)/d(x)
        w3 = np.einsum(
            "i,j,k->ijk", self.kern.weights, self.kern.weights, self.kern.weights
        ).ravel()
        self.Mdiag = (np.tile(w3, ne) * self.detJ).reshape(ne, n3)
        # advection coefficients c_k = a . grad(ref_k) at volume nodes
        a = velocity(self.x)
        c = np.einsum("mkd,md->mk", self.Jinv, a).reshape(ne, n3, 3)
        # kept as -c_k in three contiguous (ne, n3) factors, the form rate() uses
        self._cneg = np.ascontiguousarray(-c.transpose(2, 0, 1))

    # -- face construction -----------------------------------------------------------

    def _neighbor_info(self, e: int, f: int):
        """Find the neighbor(s) of element e across face f.

        Returns ``None`` (forest boundary), or a list of
        ``(nb_elem, driving_side)`` where driving_side is the finer side
        element whose face points define the quadrature.
        """
        axis, side = _FACE_AXIS_SIDE[f]
        tid = self.tree_ids[e]
        h = int(self.octs.lengths()[e])
        anchor = np.array([self.octs.x[e], self.octs.y[e], self.octs.z[e]], dtype=np.int64)
        lvl = int(self.octs.level[e])
        d = np.zeros(3, dtype=np.int64)
        d[axis] = 1 if side else -1
        center = anchor + h // 2 + d * h
        t_nb, l_nb = self.forest.neighbor_leaf(tid, center[None, :])
        if t_nb[0] < 0:
            return None
        nb_lvl = int(self.forest.trees[t_nb[0]].levels[l_nb[0]])
        ge = self._offsets[t_nb[0]] + l_nb[0]
        if nb_lvl <= lvl:
            # conforming or I'm the fine side: my face drives
            return [(int(ge), e)]
        # I'm the coarse side: locate the 4 fine sub-neighbors
        out = []
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        for j2 in range(2):
            for j1 in range(2):
                # sample the center of each quarter of my face, pushed h/4
                # beyond it — lands inside one of the 4 fine neighbors
                q = anchor + h // 2 + d * (h // 2 + h // 4)
                q[t1] = anchor[t1] + h // 4 + j1 * (h // 2)
                q[t2] = anchor[t2] + h // 4 + j2 * (h // 2)
                tq, lq = self.forest.neighbor_leaf(tid, q[None, :])
                if tq[0] < 0:
                    raise AssertionError("fine neighbor lookup failed")
                out.append((int(self._offsets[tq[0]] + lq[0]), int(self._offsets[tq[0]] + lq[0])))
        return out

    def _face_st(self, e: int, f: int, pts_tree: np.ndarray) -> np.ndarray:
        """Convert tree-frame float points lying on face f of element e to
        that face's local (s, t) in [-1, 1]^2 (lower tangent axis first)."""
        axis, _ = _FACE_AXIS_SIDE[f]
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        h = float(self.octs.lengths()[e])
        anchor = np.array(
            [self.octs.x[e], self.octs.y[e], self.octs.z[e]], dtype=np.float64
        )
        loc = 2.0 * (pts_tree - anchor) / h - 1.0
        st = np.stack([loc[:, t1], loc[:, t2]], axis=1)
        if np.any(np.abs(st) > 1 + 1e-9):
            raise AssertionError("face point outside element face")
        return np.clip(st, -1.0, 1.0)

    def _interp_from_face(self, st: np.ndarray) -> np.ndarray:
        """(m, n2) interpolation from a face's nodal values (2-D order
        t1-fastest) to points ``st``."""
        A = lagrange_basis_at(self.kern.nodes, st[:, 0])  # (m, n) along t1
        B = lagrange_basis_at(self.kern.nodes, st[:, 1])  # (m, n) along t2
        m = len(st)
        return np.einsum("ma,mb->mba", A, B).reshape(m, self.n2)

    def _face_quad_tree_coords(self, e: int, f: int) -> np.ndarray:
        """Tree-frame float coords of element e's face-f LGL nodes."""
        axis, side = _FACE_AXIS_SIDE[f]
        g = self.kern.nodes
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        S2, S1 = np.meshgrid(g, g, indexing="ij")  # t2 slower, t1 faster
        ref = np.empty((self.n2, 3), dtype=np.float64)
        ref[:, axis] = 1.0 if side else -1.0
        ref[:, t1] = S1.ravel()
        ref[:, t2] = S2.ravel()
        eids = np.full(self.n2, e)
        return self._leaf_tree_coords(eids, ref)

    def _to_frame(self, tid_from: int, tid_to: int, pts: np.ndarray, via_face: int) -> np.ndarray:
        """Map float tree coords between adjacent tree frames (identity
        within a tree, lattice transform across the given face)."""
        if tid_from == tid_to:
            return pts
        fc = self.conn.face_connections[tid_from][via_face]
        if fc is None or fc.neighbor_tree != tid_to:
            raise AssertionError("no face connection to target tree")
        R = np.array(fc.R, dtype=np.float64)
        o = np.array(fc.o, dtype=np.float64)
        return pts @ R.T + o

    def _surface_metric(self, e: int, f: int, quad_tree: np.ndarray):
        """Surface Jacobian and outward unit normal at face quad points
        (given in e's tree frame), using element e's geometry."""
        axis, side = _FACE_AXIS_SIDE[f]
        tid = self.tree_ids[e]
        ref01 = quad_tree / ROOT_LEN
        Jt = self.conn.tree_map_jacobian(tid, ref01)
        hfrac = float(self.octs.lengths()[e]) / ROOT_LEN * 0.5
        J = Jt * hfrac
        detJ = np.linalg.det(J)
        Jinv = np.linalg.inv(J)
        nref = np.zeros(3, dtype=np.float64)
        nref[axis] = 1.0 if side else -1.0
        nvec = np.einsum("mkd,k->md", Jinv, nref) * detJ[:, None]
        sj = np.linalg.norm(nvec, axis=1)
        normal = nvec / sj[:, None]
        return sj, normal

    def _face_instances(self, velocity) -> tuple[dict, dict]:
        """Every face instance, merged in canonical (element, face, sub)
        order so flux accumulation order — and hence floating-point
        results — does not depend on which builder ran.

        An interior instance is one (my face, one neighbor) pair with
        quadrature on the finer side's face nodes: ``mine`` / ``nb``
        (n2,) node ids, ``drive`` (my face nodes are the quadrature
        points), ``M`` (n2, n2) the one non-trivial trace operator —
        neighbor nodes -> quad points when I drive, my nodes -> quad
        points when the (finer) neighbor does; the other operator is the
        identity — and ``wsj`` / ``an`` (n2,) weight * surface Jacobian
        and ``a . n`` (outward from me) at the quad points.
        """
        n2 = self.n2

        def field(*shape, dtype=np.float64):
            # seeded with a zero-length batch so an empty class still merges
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
        if self.batch_faces:
            self._build_faces_batched(velocity, interior, bdry)
        else:
            for e in range(self.ne):  # lint: allow-loop (pre-vectorization path)
                for f in range(6):
                    self._build_face_single(e, f, velocity, interior, bdry)

        def merge(d):
            order = np.argsort(np.concatenate(d["key"]), kind="stable")
            return {k: np.concatenate(v, axis=0)[order] for k, v in d.items()}

        return merge(interior), merge(bdry)

    def _build_face_single(self, e: int, f: int, velocity, interior, bdry) -> None:
        """Per-face instance construction (the pre-vectorization path;
        the batched builder delegates cross-tree faces here).  Appends
        instance arrays with a leading singleton axis plus a ``key``
        ``e * 6 + f`` so instances can be merged in canonical order."""
        w2 = np.einsum("i,j->ij", self.kern.weights, self.kern.weights).ravel()
        tid = int(self.tree_ids[e])
        info = self._neighbor_info(e, f)
        mine_nodes = e * self.n3 + self._face_idx[f]
        if info is None:
            quad = self._face_quad_tree_coords(e, f)
            sj, normal = self._surface_metric(e, f, quad)
            xq = self.conn.tree_map(tid, quad / ROOT_LEN)
            an = np.einsum("md,md->m", velocity(xq), normal)
            bdry["mine"].append(mine_nodes[None])
            bdry["wsj"].append((w2 * sj)[None])
            bdry["an"].append(an[None])
            bdry["uin"].append(np.asarray(self.inflow(xq))[None])
            bdry["key"].append(np.array([e * 6 + f], dtype=np.int64))
            return
        for ge, driver in info:
            tid_nb = int(self.tree_ids[ge])
            if driver == e:
                # quadrature on my own face points
                quad = self._face_quad_tree_coords(e, f)
                # neighbor's matching face: which face of ge?
                quad_nb = self._to_frame(tid, tid_nb, quad, f)
                fnb = self._facing_face(ge, quad_nb)
                M = self._interp_from_face(self._face_st(ge, fnb, quad_nb))
            else:
                # neighbor (fine side) drives: its face points
                fnb = self._facing_face_of_neighbor(e, f, ge)
                quad_nb = self._face_quad_tree_coords(ge, fnb)
                quad = self._to_frame(tid_nb, tid, quad_nb, fnb)
                M = self._interp_from_face(self._face_st(e, f, quad))
            sj, normal = self._surface_metric(e, f, quad)
            xq = self.conn.tree_map(tid, quad / ROOT_LEN)
            an = np.einsum("md,md->m", velocity(xq), normal)
            interior["mine"].append(mine_nodes[None])
            interior["nb"].append((ge * self.n3 + self._face_idx[fnb])[None])
            interior["M"].append(M[None])
            interior["drive"].append(np.array([driver == e], dtype=bool))
            interior["wsj"].append((w2 * sj)[None])
            interior["an"].append(an[None])
            interior["key"].append(np.array([e * 6 + f], dtype=np.int64))

    # -- batched face construction -------------------------------------------

    def _face_ref_coords(self, f: int) -> np.ndarray:
        """(n2, 3) reference coords of face f's LGL nodes (t1 fastest) —
        the batched twin of :meth:`_face_quad_tree_coords`'s ref block."""
        axis, side = _FACE_AXIS_SIDE[f]
        g = self.kern.nodes
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        S2, S1 = np.meshgrid(g, g, indexing="ij")
        ref = np.empty((self.n2, 3), dtype=np.float64)
        ref[:, axis] = 1.0 if side else -1.0
        ref[:, t1] = S1.ravel()
        ref[:, t2] = S2.ravel()
        return ref

    def _batched_metric(self, E: np.ndarray, f: int, quad: np.ndarray):
        """Vectorized :meth:`_surface_metric` for faces of elements ``E``
        (quad: (m, n2, 3) tree-frame points, each in its element's tree)."""
        axis, side = _FACE_AXIS_SIDE[f]
        m = len(E)
        n2 = self.n2
        ref01 = (quad / ROOT_LEN).reshape(m * n2, 3)
        tpt = np.repeat(self.tree_ids[E], n2)
        Jt = np.empty((m * n2, 3, 3), dtype=np.float64)
        for t in np.unique(tpt):
            s = tpt == t
            Jt[s] = self.conn.tree_map_jacobian(int(t), ref01[s])
        hfrac = np.repeat(
            self.octs.lengths()[E].astype(np.float64) / ROOT_LEN * 0.5, n2
        )
        J = Jt * hfrac[:, None, None]
        detJ = np.linalg.det(J)
        Jinv = np.linalg.inv(J)
        nref = np.zeros(3, dtype=np.float64)
        nref[axis] = 1.0 if side else -1.0
        nvec = np.einsum("mkd,k->md", Jinv, nref) * detJ[:, None]
        sj = np.linalg.norm(nvec, axis=1)
        normal = nvec / sj[:, None]
        return sj.reshape(m, n2), normal.reshape(m, n2, 3)

    def _batched_phys(self, E: np.ndarray, quad: np.ndarray) -> np.ndarray:
        """Vectorized tree-map of (m, n2, 3) tree-frame face points."""
        m, n2 = quad.shape[0], self.n2
        pts = (quad / ROOT_LEN).reshape(m * n2, 3)
        tpt = np.repeat(self.tree_ids[E], n2)
        out = np.empty((m * n2, 3), dtype=np.float64)
        for t in np.unique(tpt):
            s = tpt == t
            out[s] = self.conn.tree_map(int(t), pts[s])
        return out.reshape(m, n2, 3)

    def _batched_interp(self, st: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_interp_from_face`: (m, n2, 2) -> (m, n2, n2)."""
        m = st.shape[0]
        flat = st.reshape(m * self.n2, 2)
        A = lagrange_basis_at(self.kern.nodes, flat[:, 0])
        B = lagrange_basis_at(self.kern.nodes, flat[:, 1])
        M = np.einsum("ma,mb->mba", A, B).reshape(m * self.n2, self.n2)
        return M.reshape(m, self.n2, self.n2)

    def _build_faces_batched(self, velocity, interior, bdry) -> None:
        """Array-op face construction: classify every (element, face) with
        :func:`~repro.forest.faces.match_faces`, then build boundary /
        conforming / fine-driver batches per direction without per-face
        Python work.  Cross-tree faces (rotated frames, inter-tree
        mortars) fall through to :meth:`_build_face_single`."""
        n2, n3 = self.n2, self.n3
        octs = self.octs
        hf = octs.lengths().astype(np.float64)
        af = np.stack([octs.x, octs.y, octs.z], axis=1).astype(np.float64)
        w2 = np.einsum("i,j->ij", self.kern.weights, self.kern.weights).ravel()

        # sort-merge joins on face descriptors classify every face and
        # resolve the four fine neighbors of each coarse face
        fcls = match_faces(self.tree_ids, octs, self.conn)
        valid, idrive, coarse, g_nb = fcls.valid, fcls.idrive, fcls.coarse, fcls.g_nb

        fallback: list[tuple[int, int]] = [
            (int(e), int(f)) for e, f in zip(*np.nonzero(valid & ~fcls.same))
        ]

        def face_quads(E, f):
            # identical arithmetic to _leaf_tree_coords on face ref points
            ref = self._face_ref_coords(f)
            return af[E][:, None, :] + (ref[None, :, :] + 1.0) * 0.5 * hf[E][
                :, None, None
            ]

        def emit_interior(E, G, f, fnb, quad, M, drive):
            sj, normal = self._batched_metric(E, f, quad)
            xq = self._batched_phys(E, quad)
            v = np.asarray(velocity(xq.reshape(-1, 3))).reshape(len(E), n2, 3)
            interior["mine"].append(E[:, None] * n3 + self._face_idx[f][None, :])
            interior["nb"].append(G[:, None] * n3 + self._face_idx[fnb][None, :])
            interior["M"].append(M)
            interior["drive"].append(np.full(len(E), drive))
            interior["wsj"].append(w2[None, :] * sj)
            interior["an"].append(np.einsum("mqd,mqd->mq", v, normal))
            interior["key"].append(E * 6 + f)

        def trace_operator(R, quad, tangential):
            """Interpolation from the face nodes of elements ``R`` to the
            tree-frame points ``quad`` lying on that face."""
            loc = 2.0 * (quad - af[R][:, None, :]) / hf[R][:, None, None] - 1.0
            st = loc[:, :, tangential]
            if np.any(np.abs(st) > 1 + 1e-9):
                raise AssertionError("face point outside element face")
            return self._batched_interp(np.clip(st, -1.0, 1.0))

        for f in range(6):
            axis = _FACE_AXIS_SIDE[f][0]
            tang = [a2 for a2 in range(3) if a2 != axis]
            fnb = f ^ 1  # same-tree frames are aligned

            # boundary faces of this direction
            E = np.flatnonzero(~valid[:, f])
            if len(E):
                quad = face_quads(E, f)
                sj, normal = self._batched_metric(E, f, quad)
                xq = self._batched_phys(E, quad)
                v = np.asarray(velocity(xq.reshape(-1, 3))).reshape(len(E), n2, 3)
                bdry["mine"].append(E[:, None] * n3 + self._face_idx[f][None, :])
                bdry["wsj"].append(w2[None, :] * sj)
                bdry["an"].append(np.einsum("mqd,mqd->mq", v, normal))
                bdry["uin"].append(
                    np.asarray(self.inflow(xq.reshape(-1, 3))).reshape(len(E), n2)
                )
                bdry["key"].append(E * 6 + f)

            # conforming / fine-side faces: my face points drive
            E = np.flatnonzero(idrive[:, f])
            if len(E):
                G = g_nb[E, f]
                quad = face_quads(E, f)
                emit_interior(E, G, f, fnb, quad, trace_operator(G, quad, tang), True)

            # coarse-side faces: each of the 4 fine neighbors drives (always
            # in-tree: cross-tree coarse faces went to fallback)
            E = np.flatnonzero(coarse[:, f])
            if len(E):
                for q in range(4):
                    G = fcls.subs[E, f, q]
                    quad = face_quads(G, fnb)  # fine neighbor's face nodes
                    emit_interior(E, G, f, fnb, quad, trace_operator(E, quad, tang), False)

        for e, f in fallback:
            self._build_face_single(e, f, velocity, interior, bdry)

    def _finalize_faces(self, interior: dict, bdry: dict) -> None:
        """Classify the merged face instances and fold everything static
        into the operands of :meth:`rate` (see :class:`_FaceBatch`)."""
        minv = 1.0 / self.Mdiag.ravel()
        mine, nb, M, drive = (interior[k] for k in ("mine", "nb", "M", "drive"))
        # upwind: f* - f^- = min(a.n, 0) (u+ - u-), weighted at the quad points
        s = interior["wsj"] * np.minimum(interior["an"], 0.0)

        # a driving face whose neighbor operator is a permutation is
        # conforming: the operator becomes part of the gather index
        R = np.rint(M)
        perm = (
            drive
            & (np.abs(M - R).max(axis=(1, 2), initial=0.0) <= _PERM_TOL)
            & ((R == 1.0).sum(axis=2) == 1).all(axis=1)
            & ((R != 0.0).sum(axis=2) == 1).all(axis=1)
        )
        # fold the permutation into the gather index, then group by class
        nb = np.where(
            perm[:, None], np.take_along_axis(nb, R.argmax(axis=2), axis=1), nb
        )
        driving = np.concatenate([np.flatnonzero(perm), np.flatnonzero(drive & ~perm)])
        coarse = np.flatnonzero(~drive)
        order = np.concatenate([driving, coarse])
        Mq = M[coarse]
        wb = -bdry["wsj"] * np.minimum(bdry["an"], 0.0) * minv[bdry["mine"]]
        self.faces = _FaceBatch(
            mine=np.concatenate([mine[order].ravel(), bdry["mine"].ravel()]),
            nb=nb[order].ravel(),
            w=-s[driving] * minv[mine[driving]],
            Mn=M[drive & ~perm],
            Mq=Mq,
            lift=-minv[mine[coarse]][:, :, None] * Mq.transpose(0, 2, 1) * s[coarse][:, None, :],
            wb=wb,
            gb=wb * bdry["uin"],
            coarse_faces=len(np.unique(interior["key"][coarse])),
        )

    def face_census(self) -> dict[str, int]:
        """Face instances by class: ``conforming`` (neighbor trace is a
        pure gather), ``fine_mortar`` / ``coarse_mortar`` (the two sides
        of a 2:1 face, one instance per fine neighbor — the only
        instances that keep an n2 x n2 operator), ``boundary``, and
        ``coarse_faces``, the number of coarse element faces the mortars
        subdivide."""
        fb = self.faces
        return {
            "conforming": len(fb.w) - len(fb.Mn),
            "fine_mortar": len(fb.Mn),
            "coarse_mortar": len(fb.Mq),
            "boundary": len(fb.wb),
            "coarse_faces": fb.coarse_faces,
        }

    def _facing_face(self, ge: int, quad_in_nb_frame: np.ndarray) -> int:
        """Which face of element ge the quad points lie on."""
        h = float(self.octs.lengths()[ge])
        anchor = np.array(
            [self.octs.x[ge], self.octs.y[ge], self.octs.z[ge]], dtype=np.float64
        )
        loc = (quad_in_nb_frame - anchor) / h
        for axis in range(3):
            if np.all(np.abs(loc[:, axis]) < 1e-9):
                return 2 * axis
            if np.all(np.abs(loc[:, axis] - 1.0) < 1e-9):
                return 2 * axis + 1
        raise AssertionError("quad points not on any face of the neighbor")

    def _facing_face_of_neighbor(self, e: int, f: int, ge: int) -> int:
        """Face id of neighbor ``ge`` that glues to face f of element e."""
        tid, tid_nb = int(self.tree_ids[e]), int(self.tree_ids[ge])
        # probe: center of my face pushed slightly outward lies inside ge;
        # classify by locating my face's quad points in ge's frame
        quad_mine = self._face_quad_tree_coords(e, f)
        quad_nb = self._to_frame(tid, tid_nb, quad_mine, f)
        h = float(self.octs.lengths()[ge])
        anchor = np.array(
            [self.octs.x[ge], self.octs.y[ge], self.octs.z[ge]], dtype=np.float64
        )
        loc = (quad_nb - anchor) / h
        # my (coarse) face covers ge's full face; find the axis pinned to 0/1
        for axis in range(3):
            if np.all(np.abs(loc[:, axis]) < 1e-9):
                return 2 * axis
            if np.all(np.abs(loc[:, axis] - 1.0) < 1e-9):
                return 2 * axis + 1
        raise AssertionError("could not identify the facing face")

    # -- operator ---------------------------------------------------------------------

    @property
    def n_dof(self) -> int:
        return self.ne * self.n3

    def nodes(self) -> np.ndarray:
        """(n_dof, 3) physical node coordinates."""
        return self.x

    def _check_field(self, u: np.ndarray) -> None:
        if np.shape(u) != (self.n_dof,):
            raise ValueError(
                f"expected a nodal field of shape ({self.n_dof},), got {np.shape(u)}"
            )

    def rate(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        """du/dt = -a . grad(u) - lift(upwind flux jumps)."""
        self._check_field(u)
        obs.counter("dg_rate_calls")
        # volume term, accumulated in place on the fresh gradient arrays;
        # the chain rule is pointwise, only the surface lift carries M^-1
        dr, ds, dt_ = self.kern.gradient_tensor(u.reshape(self.ne, self.n3))
        dr *= self._cneg[0]
        ds *= self._cneg[1]
        dt_ *= self._cneg[2]
        dr += ds
        dr += dt_
        res = dr.reshape(-1)

        fb = self.faces
        b = len(fb.w)  # instances whose own face nodes are the quad points
        a, c = b - len(fb.Mn), b + len(fb.Mq)
        um = u.take(fb.mine).reshape(-1, self.n2)
        up = u.take(fb.nb).reshape(-1, self.n2)
        flux = np.empty_like(um)
        # conforming and fine side: quadrature at my own face nodes
        np.subtract(up[:a], um[:a], out=flux[:a])
        np.subtract(np.matmul(fb.Mn, up[a:b, :, None])[:, :, 0], um[a:b], out=flux[a:b])
        flux[:b] *= fb.w
        # coarse side: jump at the fine neighbor's nodes, lifted back by Mq^T
        jump = up[b:c] - np.matmul(fb.Mq, um[b:c, :, None])[:, :, 0]
        flux[b:c] = np.matmul(fb.lift, jump[:, :, None])[:, :, 0]
        # boundary: exterior trace is the static inflow
        np.subtract(fb.gb, fb.wb * um[c:], out=flux[c:])
        res += np.bincount(fb.mine, weights=flux.reshape(-1), minlength=self.n_dof)
        return res

    # -- time stepping ------------------------------------------------------------------

    def cfl_dt(self, cfl: float = 0.3) -> float:
        """CFL bound from the reference-space wave speed, with the usual
        (2p + 1) high-order penalty."""
        cmax = np.linalg.norm(self._cneg, axis=0).max()
        if cmax <= 0:
            raise ValueError("zero advection speed everywhere")
        # reference element has length 2; LGL min spacing ~ 2/p^2 handled
        # by the (2p+1) factor
        return cfl * 2.0 / (cmax * (2 * self.p + 1))

    def advance(self, u: np.ndarray, dt: float, n_steps: int, t0: float = 0.0) -> np.ndarray:
        self._check_field(u)
        with obs.phase("dg/advance"):
            return self._rk.advance(self.rate, u, t0, dt, n_steps)

    def project(self, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Nodal interpolation of an initial condition."""
        return func(self.x)

    def total_mass(self, u: np.ndarray) -> float:
        self._check_field(u)
        return float((self.Mdiag.ravel() * u).sum())
