"""Cubed-sphere spherical shell connectivity (24 trees).

"The spherical shell is split into 6 caps as usual in a cubed-sphere
decomposition.  Each cap consists of 4 octrees, resulting in 24 adaptive
octrees overall." (Section VII)

Each cap is one face of the cube [-1,1]^3, subdivided 2x2; the 3x3 grid of
patch corners is projected radially onto the sphere at the inner and outer
shell radii, giving each tree 8 vertices (4 inner + 4 outer).  Shared
vertices between caps are deduplicated so the automatic face matching of
:class:`~repro.forest.connectivity.Connectivity` discovers all inter-cap
gluings, including the rotated coordinate systems between caps.
"""

from __future__ import annotations

import numpy as np

from .connectivity import Connectivity, trilinear, trilinear_gradient

__all__ = ["cubed_sphere_connectivity", "RadialProjectionGeometry"]


class RadialProjectionGeometry:
    """Exact curved shell geometry by radial projection.

    The trilinear vertex map of a tree gives a straight-sided hexahedron;
    projecting its image radially (direction from the trilinear point,
    radius interpolated trilinearly from the corner radii) produces a
    smooth mapping that is (a) exactly spherical on the inner/outer shell
    faces, and (b) consistent across tree faces, because the face
    restriction depends only on the four shared vertices.  This plays the
    role of p4est's geometry callbacks: refinement converges to the true
    curved shell instead of the chordal approximation.
    """

    def map(self, conn, tree, ref: np.ndarray) -> np.ndarray:
        Pr = trilinear(self._vertex_radii(conn), conn.tree_vertices[tree].T, ref)
        P, r = Pr[:, :3], Pr[:, 3]
        norm = np.linalg.norm(P, axis=1)
        return P / norm[:, None] * r[:, None]

    def jacobian(self, conn, tree, ref: np.ndarray) -> np.ndarray:
        """Analytic Jacobian: x = r(ref) * N(ref) with N = P/|P|."""
        Pr, G = trilinear_gradient(
            self._vertex_radii(conn), conn.tree_vertices[tree].T, ref
        )
        P, r = Pr[:, :3], Pr[:, 3]
        Jp, gr = G[:, :3], G[:, 3]  # dP/dref, dr/dref
        norm = np.linalg.norm(P, axis=1)
        N = P / norm[:, None]
        # dN/dref = (I - N N^T)/|P| @ dP/dref
        proj = np.eye(3)[None] - N[:, :, None] * N[:, None, :]
        dN = np.einsum("nab,nbk->nak", proj / norm[:, None, None], Jp)
        return N[:, :, None] * gr[:, None, :] + r[:, None, None] * dN

    @staticmethod
    def _vertex_radii(conn) -> np.ndarray:
        """(n_vertices, 4) vertex coordinates and radii: the trilinear map
        P and the interpolated corner radius r are one 4-vector (P, r)."""
        return np.column_stack([conn.vertices, np.linalg.norm(conn.vertices, axis=1)])

# For each of the 6 cube faces: (normal axis, sign, u axis, v axis).
_CAPS = [
    (0, +1, 1, 2),  # +x
    (0, -1, 1, 2),  # -x
    (1, +1, 2, 0),  # +y
    (1, -1, 2, 0),  # -y
    (2, +1, 0, 1),  # +z
    (2, -1, 0, 1),  # -z
]


def _cap_point(cap: int, u: float, v: float) -> np.ndarray:
    """Point on the unit cube face of ``cap`` at parameters (u, v) in
    [-1, 1]^2, then radially projected to the unit sphere."""
    axis, sign, ua, va = _CAPS[cap]
    p = np.zeros(3)
    p[axis] = sign
    p[ua] = u
    p[va] = v
    return p / np.linalg.norm(p)


def cubed_sphere_connectivity(
    r_inner: float = 0.55, r_outer: float = 1.0, curved: bool = True
) -> Connectivity:
    """Build the 24-tree spherical shell.

    ``r_inner``/``r_outer`` default to Earth-like mantle proportions
    (CMB radius / surface radius ~ 0.55).  With ``curved=True`` (default)
    the exact :class:`RadialProjectionGeometry` is attached so refinement
    converges to the true shell; ``curved=False`` keeps straight-sided
    trilinear trees.
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    verts: list[np.ndarray] = []
    vert_index: dict[tuple, int] = {}

    def add_vertex(p: np.ndarray) -> int:
        key = tuple(np.round(p, 12))
        if key not in vert_index:
            vert_index[key] = len(verts)
            verts.append(p)
        return vert_index[key]

    trees = []
    params = [-1.0, 0.0, 1.0]
    for cap in range(6):
        # 3x3 grid of sphere points for this cap, at both radii
        grid_ids = np.empty((3, 3, 2), dtype=np.int64)
        for iu in range(3):
            for iv in range(3):
                s = _cap_point(cap, params[iu], params[iv])
                grid_ids[iu, iv, 0] = add_vertex(s * r_inner)
                grid_ids[iu, iv, 1] = add_vertex(s * r_outer)
        for pu in range(2):
            for pv in range(2):
                # tree corners: local x = u, y = v, z = radial (in->out)
                corner_ids = [
                    grid_ids[pu + (c & 1), pv + ((c >> 1) & 1), (c >> 2) & 1]
                    for c in range(8)
                ]
                # ensure a right-handed (positive Jacobian) vertex order:
                # if the (u, v, r) frame of this cap is left-handed, swap
                # the u/v roles by transposing the corner bit pattern.
                v8 = np.array([verts[i] for i in corner_ids])
                e1 = v8[1] - v8[0]
                e2 = v8[2] - v8[0]
                e3 = v8[4] - v8[0]
                if np.linalg.det(np.stack([e1, e2, e3], axis=1)) < 0:
                    corner_ids = [
                        corner_ids[(c & 1) * 2 + ((c >> 1) & 1) + (c & 4)]
                        for c in range(8)
                    ]
                trees.append(corner_ids)
    geometry = RadialProjectionGeometry() if curved else None
    return Connectivity(np.array(verts), np.array(trees, dtype=np.int64), geometry=geometry)
