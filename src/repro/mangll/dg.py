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

Faces are classified once per forest by the descriptor joins of
:func:`repro.forest.faces.match_faces` and built in array batches by one
builder.  A face glued across trees (including the rotated coordinate
systems between cubed-sphere caps) differs from an in-tree face only by
the connectivity's exact lattice transform, applied to the points handed
to the other side; interpolation matrices are generic tensor Lagrange
evaluations, so conforming faces, rotated faces, and mortar faces are all
instances of the same mechanism.  The per-face probe loop this replaced is
the test oracle ``tests/oracles/dg_faces.py``.

That mechanism is how faces are *built*.  The semi-discrete operator is
affine in ``u`` and fixed for the life of a mesh, so the constructor
assembles it once (DESIGN.md section 4j): the volume term and every face
class go into one CSR matrix ``L`` and the inflow into one vector ``g``,
and :meth:`DGAdvection.rate` is the sparse mat-vec ``L u + g``.  A
conforming face enters ``L`` through a permuted index, only the two sides
of a 2:1 mortar contribute dense ``n2 x n2`` blocks, and every weight is
folded into the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..forest import Connectivity, Forest, match_faces
from ..octree import ROOT_LEN
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
    """The surface term of the DG operator, the face tables that
    :meth:`DGAdvection._assemble` turns into entries of ``L`` and ``g``.

    Face instances are grouped by class, in this order: *conforming*
    (``nc``), *fine* side of a mortar (``nf``), *coarse* side (``ncs``),
    *boundary* (``nbd``); the array lengths carry the counts.  Quadrature
    weight, surface Jacobian, the upwind switch ``min(a.n, 0)``, the
    inverse mass and the sign of the lift are folded into ``w``, ``lift``,
    ``wb`` and ``gb``: each instance adds its flux at the nodes ``mine``
    and applies no other factor.
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


def _census(fb: _FaceBatch) -> dict[str, int]:
    """Instances per class of ``fb`` (:meth:`DGAdvection.face_census`)."""
    return {
        "conforming": len(fb.w) - len(fb.Mn),
        "fine_mortar": len(fb.Mn),
        "coarse_mortar": len(fb.Mq),
        "boundary": len(fb.wb),
        "coarse_faces": fb.coarse_faces,
    }


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

    The operator is affine and static: ``L`` (CSR) and ``g`` are
    assembled once, and :meth:`rate` returns ``L u + g``.

    Raises ``ValueError`` (from :func:`repro.forest.faces.match_faces`)
    when the forest is not 2:1 face-balanced, inside a tree or across a
    tree face.
    """

    def __init__(
        self,
        forest: Forest,
        p: int,
        velocity: Callable[[np.ndarray], np.ndarray],
        inflow: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.forest = forest
        self.conn: Connectivity = forest.conn
        self.p = p
        self.kern = DerivativeKernel(p)
        n = p + 1
        self.n = n
        self.n3 = n**3
        self.n2 = n**2
        self.inflow = inflow or (lambda x: np.zeros(len(x), dtype=np.float64))

        # flatten elements
        self.tree_ids = forest.tree_ids
        self.octs = forest.octs
        self.ne = len(self.octs)

        self._face_idx = _face_node_indices(n)
        with obs.phase("dg/setup"):
            with obs.phase("geometry"):
                self._build_geometry(velocity)
            with obs.phase("faces"):
                interior, bdry = self._face_instances(velocity)
            with obs.phase("rate_tables"):
                faces = self._finalize_faces(interior, bdry)
                del interior, bdry  # freed before _assemble allocates
                self._census = _census(faces)
                self.L, self.g = self._assemble(faces)
                obs.counter("dg_operator_nnz", self.L.nnz)
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

    def _metric(self, tids: np.ndarray, ref01: np.ndarray, hfrac: np.ndarray):
        """Physical points, Jacobian determinant and inverse Jacobian of
        the leaf map at (m, 3) tree-frame points ``ref01`` in [0, 1]^3 of
        trees ``tids`` (m,), for leaves of half-length ``hfrac`` (m,) in
        tree units: the tree map composed with the leaf scaling."""
        J = self.conn.tree_map_jacobian(tids, ref01) * hfrac[:, None, None]
        return self.conn.tree_map(tids, ref01), np.linalg.det(J), np.linalg.inv(J)

    def _build_geometry(self, velocity) -> None:
        n3, ne = self.n3, self.ne
        g = self.kern.nodes  # 1-D LGL on [-1, 1]
        # volume node reference coords, C order [t, s, r]
        T, S, R = np.meshgrid(g, g, g, indexing="ij")
        ref = np.stack([R.ravel(), S.ravel(), T.ravel()], axis=1)  # (n3, 3)
        eids = np.repeat(np.arange(ne), n3)
        tree_coords = self._leaf_tree_coords(eids, np.tile(ref, (ne, 1))) / ROOT_LEN
        # d(tree_ref)/d(leaf_local) = h_frac / 2
        hfrac = (self.octs.lengths().astype(np.float64) / ROOT_LEN)[eids] * 0.5
        self.x, self.detJ, self.Jinv = self._metric(
            np.repeat(self.tree_ids, n3), tree_coords, hfrac
        )  # Jinv rows: d(ref_k)/d(x)
        if np.any(self.detJ <= 0):
            raise AssertionError("non-positive element Jacobian")
        w3 = np.einsum(
            "i,j,k->ijk", self.kern.weights, self.kern.weights, self.kern.weights
        ).ravel()
        self.Mdiag = (np.tile(w3, ne) * self.detJ).reshape(ne, n3)
        # advection coefficients c_k = a . grad(ref_k) at volume nodes
        a = velocity(self.x)
        c = np.einsum("mkd,md->mk", self.Jinv, a).reshape(ne, n3, 3)
        # kept as -c_k in three contiguous (ne, n3) factors, the volume
        # coefficients of L
        self._cneg = np.ascontiguousarray(-c.transpose(2, 0, 1))

    # -- face construction -----------------------------------------------------------

    def _face_instances(self, velocity) -> tuple[dict, dict]:
        """Every face instance, in canonical (element, face, quadrant)
        order so the flux accumulation order, and hence the
        floating-point result, does not depend on how faces were batched.

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
        self._build_faces_batched(velocity, interior, bdry)

        def merge(d):
            # pop: each field's batches are freed once merged (constructor peak)
            order = np.argsort(np.concatenate(d["key"]), kind="stable")
            return {k: np.concatenate(d.pop(k), axis=0)[order] for k in list(d)}

        return merge(interior), merge(bdry)

    # -- batched face construction -------------------------------------------

    def _face_ref_coords(self, f: int) -> np.ndarray:
        """(n2, 3) reference coords of face f's LGL nodes (t1 fastest)."""
        axis, side = _FACE_AXIS_SIDE[f]
        g = self.kern.nodes
        t1, t2 = [a2 for a2 in range(3) if a2 != axis]
        S2, S1 = np.meshgrid(g, g, indexing="ij")
        ref = np.empty((self.n2, 3), dtype=np.float64)
        ref[:, axis] = 1.0 if side else -1.0
        ref[:, t1] = S1.ravel()
        ref[:, t2] = S2.ravel()
        return ref

    def _batched_interp(self, st: np.ndarray) -> np.ndarray:
        """(m, n2, n2) interpolation from a face's nodal values (t1
        fastest) to the face-local points ``st`` (m, n2, 2)."""
        m = st.shape[0]
        flat = st.reshape(m * self.n2, 2)
        A = lagrange_basis_at(self.kern.nodes, flat[:, 0])
        B = lagrange_basis_at(self.kern.nodes, flat[:, 1])
        M = np.einsum("ma,mb->mba", A, B).reshape(m * self.n2, self.n2)
        return M.reshape(m, self.n2, self.n2)

    def _build_faces_batched(self, velocity, interior, bdry) -> None:
        """Classify every (element, face) with
        :func:`~repro.forest.faces.match_faces`, then build boundary /
        my-face-drives / fine-neighbors-drive batches per (face, neighbor
        face) with array operations.  A face glued across trees differs
        from an in-tree one by a frame change of the points handed to the
        other side: ``p_B = R p_A + o`` with the signed permutation ``R``
        of the connectivity, one exact product and one addition per
        coordinate.

        Where my own face nodes are the quadrature points (boundary,
        conforming, fine side of a mortar), they are volume nodes — the
        LGL end nodes are exactly +-1 — so their geometry and wind are
        read off the volume arrays.  Only the coarse side, whose points
        are the fine neighbor's nodes, evaluates its tree map, once per
        batch.  Appends to the instance lists, keyed ``6 e + f``."""
        n2, n3 = self.n2, self.n3
        octs, conn, tids = self.octs, self.conn, self.tree_ids
        hf = octs.lengths().astype(np.float64)
        af = np.stack([octs.x, octs.y, octs.z], axis=1).astype(np.float64)
        w2 = np.einsum("i,j->ij", self.kern.weights, self.kern.weights).ravel()
        a_nodes = np.asarray(velocity(self.x))  # the wind at every volume node

        # sort-merge joins on face descriptors classify every face and
        # resolve the four fine neighbors of each coarse face
        with obs.phase("classify"):
            fcls = match_faces(tids, octs, conn)
        obs.counter("dg_faces_cross_tree", int((fcls.valid & ~fcls.same).sum()))
        # the neighbor's face: the opposite one in-tree, the glued one across
        nb_face = np.where(fcls.same, np.arange(6) ^ 1, conn.face_face[tids])

        def face_quads(E, f):
            """Tree-frame points of face f's nodes (``_leaf_tree_coords``
            arithmetic on the face reference points)."""
            ref = self._face_ref_coords(f)
            return af[E][:, None, :] + (ref[None, :, :] + 1.0) * 0.5 * hf[E][
                :, None, None
            ]

        def across(E, f, pts):
            """``pts`` (one (n2, 3) block per element of ``E``, in its
            tree's frame) in the frame of the tree beyond its face f."""
            x = np.flatnonzero(~fcls.same[E, f])
            if len(x) == 0:
                return pts
            R = conn.face_R[tids[E[x]], f].astype(np.float64)
            o = conn.face_o[tids[E[x]], f].astype(np.float64)
            out = pts.copy()
            out[x] = np.matmul(pts[x], R.transpose(0, 2, 1)) + o[:, None, :]
            return out

        def surface(f, detJ, Jinv, v):
            """Weighted surface Jacobian and ``a . n`` of face f, (m, n2)
            each, from the leaf metric and wind at its m * n2 points."""
            axis, side = _FACE_AXIS_SIDE[f]
            nref = np.zeros(3, dtype=np.float64)
            nref[axis] = 1.0 if side else -1.0
            nvec = np.einsum("mkd,k->md", Jinv, nref) * detJ[:, None]
            sj = np.linalg.norm(nvec, axis=1)
            normal = (nvec / sj[:, None]).reshape(-1, n2, 3)
            an = np.einsum("mqd,mqd->mq", v.reshape(-1, n2, 3), normal)
            return w2[None, :] * sj.reshape(-1, n2), an

        def own_face(E, f):
            """:func:`surface` and the physical points of face f of
            elements ``E`` at its own nodes, read off the volume nodes."""
            idx = (E[:, None] * n3 + self._face_idx[f][None, :]).ravel()
            wsj, an = surface(f, self.detJ[idx], self.Jinv[idx], a_nodes[idx])
            return wsj, an, self.x[idx]

        def coarse_face(E, f, quad):
            """:func:`surface` of face f of elements ``E`` at the points
            ``quad`` (m, n2, 3) in their own frames: the tree maps of all
            of them in one call."""
            ref01 = (quad / ROOT_LEN).reshape(-1, 3)
            hfrac = np.repeat(hf[E] / ROOT_LEN * 0.5, n2)
            xq, detJ, Jinv = self._metric(np.repeat(tids[E], n2), ref01, hfrac)
            return surface(f, detJ, Jinv, np.asarray(velocity(xq)))

        def emit_interior(E, G, f, fnb, M, drive, wsj, an):
            interior["mine"].append(E[:, None] * n3 + self._face_idx[f][None, :])
            interior["nb"].append(G[:, None] * n3 + self._face_idx[fnb][None, :])
            interior["M"].append(M)
            interior["drive"].append(np.full(len(E), drive))
            interior["wsj"].append(wsj)
            interior["an"].append(an)
            interior["key"].append(E * 6 + f)

        def trace_operator(S, f, quad):
            """Interpolation from the face-f nodes of elements ``S`` to
            the points ``quad`` on that face, given in their frames."""
            loc = 2.0 * (quad - af[S][:, None, :]) / hf[S][:, None, None] - 1.0
            st = loc[:, :, [a2 for a2 in range(3) if a2 != _FACE_AXIS_SIDE[f][0]]]
            if np.any(np.abs(st) > 1 + 1e-9):
                raise AssertionError("face point outside element face")
            return self._batched_interp(np.clip(st, -1.0, 1.0))

        for f in range(6):
            # boundary faces of this direction
            E = np.flatnonzero(~fcls.valid[:, f])
            if len(E):
                wsj, an, xq = own_face(E, f)
                bdry["mine"].append(E[:, None] * n3 + self._face_idx[f][None, :])
                bdry["wsj"].append(wsj)
                bdry["an"].append(an)
                bdry["uin"].append(np.asarray(self.inflow(xq)).reshape(len(E), n2))
                bdry["key"].append(E * 6 + f)

            for fnb in np.unique(nb_face[fcls.valid[:, f], f]):
                fnb = int(fnb)
                sel = fcls.valid[:, f] & (nb_face[:, f] == fnb)

                # conforming / fine-side faces: my face points drive
                E = np.flatnonzero(sel & fcls.idrive[:, f])
                if len(E):
                    G = fcls.g_nb[E, f]
                    M = trace_operator(G, fnb, across(E, f, face_quads(E, f)))
                    wsj, an, _ = own_face(E, f)
                    emit_interior(E, G, f, fnb, M, True, wsj, an)

                # coarse-side faces: each of the 4 fine neighbors drives,
                # its face nodes brought into my frame
                E = np.flatnonzero(sel & fcls.coarse[:, f])
                if len(E):
                    for q in range(4):
                        G = fcls.subs[E, f, q]
                        quad = across(G, fnb, face_quads(G, fnb))
                        M = trace_operator(E, f, quad)
                        wsj, an = coarse_face(E, f, quad)
                        emit_interior(E, G, f, fnb, M, False, wsj, an)

    def _finalize_faces(self, interior: dict, bdry: dict) -> _FaceBatch:
        """Classify the merged face instances and fold everything static
        into the face tables (see :class:`_FaceBatch`)."""
        minv = 1.0 / self.Mdiag.ravel()
        mine, nb, M, drive = (interior[k] for k in ("mine", "nb", "M", "drive"))
        # upwind: f* - f^- = min(a.n, 0) (u+ - u-), weighted at the quad points
        s = interior["wsj"] * np.minimum(interior["an"], 0.0)

        # a driving face whose neighbor operator is a permutation is
        # conforming: the operator becomes part of the gather index (R is
        # reused for |M - R|, so one (ni, n2, n2) temporary is live)
        R = np.rint(M)
        perm = (
            drive
            & ((R == 1.0).sum(axis=2) == 1).all(axis=1)
            & (np.count_nonzero(R, axis=2) == 1).all(axis=1)
        )
        pick = R.argmax(axis=2)
        np.abs(np.subtract(M, R, out=R), out=R)
        perm &= R.max(axis=(1, 2), initial=0.0) <= _PERM_TOL
        del R
        # fold the permutation into the gather index, then group by class
        nb = np.where(perm[:, None], np.take_along_axis(nb, pick, axis=1), nb)
        driving = np.concatenate([np.flatnonzero(perm), np.flatnonzero(drive & ~perm)])
        coarse = np.flatnonzero(~drive)
        order = np.concatenate([driving, coarse])
        Mq = M[coarse]
        wb = -bdry["wsj"] * np.minimum(bdry["an"], 0.0) * minv[bdry["mine"]]
        return _FaceBatch(
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

    def _assemble(self, fb: _FaceBatch) -> tuple[sp.csr_matrix, np.ndarray]:
        """``L`` (CSR, int32 indices) and ``g`` of ``rate(u) = L u + g``.

        The volume term ``sum_k diag(-c_k) D_k`` has the same ``3n - 2``
        columns in every row (the union pattern of the three derivative
        matrices, diagonal included), so it is written as CSR directly.
        The face classes are COO blocks, row ``mine`` throughout:
        conforming ``w`` at the permuted neighbor node, fine side
        ``w Mn``, coarse side ``lift`` at the fine neighbor's nodes and
        ``-lift Mq`` at its own, and ``-w`` / ``-wb`` on the diagonal.
        The CSR conversion and the final sum add the duplicates; the sparse
        sum stores no exact zero, so the outflow half of every face (where
        the upwind switch vanishes) does not enter ``L``.
        """
        n2, n3, ne, nd = self.n2, self.n3, self.ne, self.n_dof
        kern = self.kern
        D = (kern.Dr_full, kern.Ds_full, kern.Dt_full)
        pattern = (D[0] != 0) | (D[1] != 0) | (D[2] != 0) | np.eye(n3, dtype=bool)
        lr, lc = np.nonzero(pattern)  # row-major: each local row's columns, sorted
        per_row = len(lc) // n3
        lc = lc.astype(np.int32)

        mine = fb.mine.reshape(-1, n2)
        nb = fb.nb.reshape(-1, n2)
        b = len(fb.w)
        a, c = b - len(fb.Mn), b + len(fb.Mq)
        blocks = [  # (rows, columns, values), broadcast to one shape each
            (mine[:a], nb[:a], fb.w[:a]),
            (mine[:b], mine[:b], -fb.w),
            (mine[a:b, :, None], nb[a:b, None, :], fb.w[a:b, :, None] * fb.Mn),
            (mine[b:c, :, None], nb[b:c, None, :], fb.lift),
            (mine[b:c, :, None], mine[b:c, None, :], -np.matmul(fb.lift, fb.Mq)),
            (mine[c:], mine[c:], -fb.wb),
        ]
        shapes = [np.broadcast_shapes(*(x.shape for x in blk)) for blk in blocks]
        total = sum(int(np.prod(shape)) for shape in shapes)
        rows = np.empty(total, dtype=np.int32)
        cols = np.empty(total, dtype=np.int32)
        vals = np.empty(total, dtype=np.float64)
        at = 0
        for blk, shape in zip(blocks, shapes):
            m = int(np.prod(shape))
            for dst, src in zip((rows, cols, vals), blk):
                np.copyto(dst[at:at + m].reshape(shape), src, casting="unsafe")
            at += m
        del blocks
        F = sp.coo_matrix((vals, (rows, cols)), shape=(nd, nd)).tocsr()
        del rows, cols, vals

        # volume entries in (element, local row, column) order, the CSR order
        data = np.empty((ne, n3, per_row), dtype=np.float64)
        Dv = [Dk[lr, lc].reshape(n3, per_row) for Dk in D]
        np.multiply(self._cneg[0][:, :, None], Dv[0], out=data)
        data += self._cneg[1][:, :, None] * Dv[1]
        data += self._cneg[2][:, :, None] * Dv[2]
        base = (np.arange(ne, dtype=np.int32) * n3)[:, None]
        V = sp.csr_matrix(
            (data.reshape(-1), (base + lc).reshape(-1),
             np.arange(0, nd * per_row + 1, per_row, dtype=np.int32)),
            shape=(nd, nd),
        )
        L = V + F
        del V, F
        L = L.copy()  # the sum's arrays are sized for V.nnz + F.nnz
        g = np.bincount(mine[c:].ravel(), weights=fb.gb.ravel(), minlength=nd)
        return L, g

    def face_census(self) -> dict[str, int]:
        """Face instances by class: ``conforming`` (neighbor trace is a
        pure gather), ``fine_mortar`` / ``coarse_mortar`` (the two sides
        of a 2:1 face, one instance per fine neighbor — the only
        instances with an n2 x n2 block in ``L``), ``boundary``, and
        ``coarse_faces``, the number of coarse element faces the mortars
        subdivide."""
        return dict(self._census)

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
        """du/dt = -a . grad(u) - lift(upwind flux jumps) = L u + g."""
        self._check_field(u)
        obs.counter("dg_rate_calls")
        res = self.L @ u
        res += self.g
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
