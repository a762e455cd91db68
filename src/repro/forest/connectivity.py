"""p4est-style connectivity: how octrees glue into a forest.

A connectivity is a list of vertices and, per tree, the 8 vertex indices
of its corners (same x-fastest ordering as octants).  Face neighbor
relations and the *coordinate transforms* between adjacent trees are
derived automatically by matching the vertex-id quadruples of faces — the
paper's "connectivity structure that defines the topological relations
between neighboring octrees", where "connecting faces involve
transformations between the coordinate systems of each of the neighboring
trees".

The transform between two trees sharing a face is an affine lattice
isometry ``p_B = R p_A + o`` (R a signed permutation), computed from the
correspondence of the four shared vertices plus the rule that the outward
normal of the face in A maps to the inward normal in B.  All arithmetic is
exact integer arithmetic on octant coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..octree.morton import ROOT_LEN

__all__ = ["Connectivity", "FaceConnection", "unit_cube", "brick_connectivity"]

# Face corner quadruples in octant vertex numbering (x fastest), and the
# outward normal of each face.  Corner order within a face is the induced
# lattice order (lower axis fastest).
FACE_CORNERS = np.array(
    [
        (0, 2, 4, 6),  # -x
        (1, 3, 5, 7),  # +x
        (0, 1, 4, 5),  # -y
        (2, 3, 6, 7),  # +y
        (0, 1, 2, 3),  # -z
        (4, 5, 6, 7),  # +z
    ],
    dtype=np.int64,
)

FACE_NORMALS = np.array(
    [
        (-1, 0, 0), (1, 0, 0),
        (0, -1, 0), (0, 1, 0),
        (0, 0, -1), (0, 0, 1),
    ],
    dtype=np.int64,
)

# Lattice positions of the 8 corners in units of ROOT_LEN.
_CORNER_LATTICE = np.array(
    [[(i & 1), (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.int64
)


@dataclass(frozen=True)
class FaceConnection:
    """One side of a tree-to-tree face gluing.

    Attributes
    ----------
    neighbor_tree, neighbor_face:
        The tree and face on the other side.
    R, o:
        The lattice transform ``p_B = R @ p_A + o`` mapping coordinates in
        this tree's frame (including points beyond the shared face) into
        the neighbor's frame.
    """

    neighbor_tree: int
    neighbor_face: int
    R: tuple  # 3x3 nested tuple of ints
    o: tuple  # length-3 tuple of ints

    def transform(self, pts: np.ndarray) -> np.ndarray:
        """Map (n, 3) integer points from this tree's frame to the
        neighbor's frame."""
        R = np.array(self.R, dtype=np.int64)
        o = np.array(self.o, dtype=np.int64)
        return pts @ R.T + o


class Connectivity:
    """Vertex-based forest connectivity with derived face transforms.

    Parameters
    ----------
    vertices:
        (n_vertices, 3) float coordinates (used for geometry maps).
    tree_vertices:
        (n_trees, 8) vertex indices per tree, octant corner order.
    """

    def __init__(self, vertices: np.ndarray, tree_vertices: np.ndarray, geometry=None):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.tree_vertices = np.asarray(tree_vertices, dtype=np.int64)
        #: optional curved geometry (object with map/jacobian); when None
        #: the trilinear vertex map is used.  Mirrors p4est's geometry
        #: callbacks: the octree topology is the same, only the embedding
        #: of each tree changes.
        self.geometry = geometry
        if self.tree_vertices.ndim != 2 or self.tree_vertices.shape[1] != 8:
            raise ValueError("tree_vertices must be (n_trees, 8)")
        if self.tree_vertices.max() >= len(self.vertices):
            raise ValueError("vertex index out of range")
        self.n_trees = len(self.tree_vertices)
        # face_connections[t][f] is a FaceConnection or None (boundary)
        self.face_connections: list[list[FaceConnection | None]] = [
            [None] * 6 for _ in range(self.n_trees)
        ]
        #: the same gluings as (n_trees, 6, ...) integer arrays, for
        #: algorithms that transform whole batches of faces at once:
        #: neighbor tree and face (-1 on the forest boundary) and the
        #: lattice transform ``p_B = face_R @ p_A + face_o``
        self.face_tree = np.full((self.n_trees, 6), -1, dtype=np.int64)
        self.face_face = np.full((self.n_trees, 6), -1, dtype=np.int64)
        self.face_R = np.zeros((self.n_trees, 6, 3, 3), dtype=np.int64)
        self.face_o = np.zeros((self.n_trees, 6, 3), dtype=np.int64)
        self._build_face_connections()

    # -- construction -------------------------------------------------------------

    def _build_face_connections(self) -> None:
        # index faces by their sorted vertex-id quadruple
        by_key: dict[tuple, list[tuple[int, int]]] = {}
        for t in range(self.n_trees):
            for f in range(6):
                ids = self.tree_vertices[t, FACE_CORNERS[f]]
                key = tuple(sorted(int(v) for v in ids))
                by_key.setdefault(key, []).append((t, f))
        for key, items in by_key.items():
            if len(items) == 1:
                continue  # boundary face
            if len(items) > 2:
                raise ValueError(f"face shared by more than two trees: {key}")
            for (ta, fa), (tb, fb) in (items, items[::-1]):
                fc = self._make_transform(ta, fa, tb, fb)
                self.face_connections[ta][fa] = fc
                self.face_tree[ta, fa], self.face_face[ta, fa] = tb, fb
                self.face_R[ta, fa], self.face_o[ta, fa] = fc.R, fc.o

    def _make_transform(self, ta: int, fa: int, tb: int, fb: int) -> FaceConnection:
        """Lattice transform from tree ``ta``'s frame to ``tb``'s frame
        across the shared face ``fa``/``fb``."""
        ids_a = self.tree_vertices[ta, FACE_CORNERS[fa]]
        ids_b = self.tree_vertices[tb, FACE_CORNERS[fb]]
        # positions of the face corners in each tree's lattice frame
        qa = _CORNER_LATTICE[FACE_CORNERS[fa]] * ROOT_LEN  # (4, 3)
        qb = _CORNER_LATTICE[FACE_CORNERS[fb]] * ROOT_LEN
        # correspondence: corner j of B's face equals which corner of A's?
        perm = np.array([int(np.flatnonzero(ids_a == v)[0]) for v in ids_b])
        # rb[j] (B frame) corresponds to qa[perm[j]] (A frame)
        # Build the affine map from three A-frame direction vectors to B:
        #   tangent1, tangent2 of the face, and the outward normal of fa
        #   mapping to the *inward* normal of fb.
        a0 = qa[perm[0]]
        b0 = qb[0]
        A_dirs = np.stack(
            [
                qa[perm[1]] - a0,
                qa[perm[2]] - a0,
                FACE_NORMALS[fa] * ROOT_LEN,
            ],
            axis=1,
        ).astype(np.float64)
        B_dirs = np.stack(
            [
                qb[1] - b0,
                qb[2] - b0,
                -FACE_NORMALS[fb] * ROOT_LEN,
            ],
            axis=1,
        ).astype(np.float64)
        R = B_dirs @ np.linalg.inv(A_dirs)
        R_int = np.rint(R).astype(np.int64)
        if not np.allclose(R, R_int, atol=1e-9):
            raise AssertionError("face transform is not a lattice isometry")
        o = b0 - R_int @ a0
        return FaceConnection(
            neighbor_tree=tb,
            neighbor_face=fb,
            R=tuple(map(tuple, R_int.tolist())),
            o=tuple(o.tolist()),
        )

    # -- geometry --------------------------------------------------------------------

    def tree_map(self, tree, ref: np.ndarray) -> np.ndarray:
        """Geometry map: (n, 3) reference coords in [0, 1]^3 to physical
        space (curved geometry when attached, else the trilinear vertex
        map).  ``tree`` is one tree id or an (n,) array of per-point tree
        ids; both give the same bits point by point."""
        ref = np.asarray(ref, dtype=np.float64)
        if self.geometry is not None:
            return self.geometry.map(self, tree, ref)
        return self.trilinear_map(tree, ref)

    def trilinear_map(self, tree, ref: np.ndarray) -> np.ndarray:
        """The straight-sided trilinear vertex map (always available)."""
        return trilinear(self.vertices, self.tree_vertices[tree].T, ref)

    def tree_map_jacobian(self, tree, ref: np.ndarray) -> np.ndarray:
        """(n, 3, 3) Jacobian ``d(phys)/d(ref)`` of the tree geometry map
        at reference points in [0, 1]^3; ``tree`` as in :meth:`tree_map`."""
        ref = np.asarray(ref, dtype=np.float64)
        if self.geometry is not None:
            return self.geometry.jacobian(self, tree, ref)
        return self.trilinear_jacobian(tree, ref)

    def trilinear_jacobian(self, tree, ref: np.ndarray) -> np.ndarray:
        """Jacobian of the straight-sided trilinear vertex map."""
        return trilinear_gradient(self.vertices, self.tree_vertices[tree].T, ref)[1]

    def boundary_faces(self) -> list[tuple[int, int]]:
        """All (tree, face) pairs on the forest boundary."""
        return [
            (t, f)
            for t in range(self.n_trees)
            for f in range(6)
            if self.face_connections[t][f] is None
        ]


def _corner_terms(values: np.ndarray, corners: np.ndarray, ref: np.ndarray):
    """Per corner of the hexahedra: its values (gathered once, contiguous),
    the three factors ``t`` or ``1 - t`` of its weight, and its bits."""
    ref = np.asarray(ref, dtype=np.float64)
    f = [(1 - ref[:, a], ref[:, a]) for a in range(3)]
    for i, bits in enumerate(_CORNER_LATTICE):
        yield (values[corners[i]], *(f[a][b] for a, b in enumerate(bits)), bits)


def trilinear(values: np.ndarray, corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of per-vertex ``values`` (n_vertices, k) at
    (n, 3) points ``ref`` in [0, 1]^3 of hexahedra with vertex ids
    ``corners``: (8,) for one hexahedron, (8, n) for one per point.  The
    (n, k) result has the same bits point by point for both forms."""
    value = np.zeros((len(ref), values.shape[1]))
    for c, fx, fy, fz, _ in _corner_terms(values, corners, ref):
        value += (fx * fy * fz)[:, None] * c
    return value


def trilinear_gradient(values: np.ndarray, corners: np.ndarray, ref: np.ndarray):
    """:func:`trilinear` and its (n, k, 3) derivatives ``d/d(ref)``, in one
    pass over the corners."""
    value = np.zeros((len(ref), values.shape[1]))
    grad = [np.zeros_like(value) for _ in range(3)]
    for c, fx, fy, fz, bits in _corner_terms(values, corners, ref):
        value += (fx * fy * fz)[:, None] * c
        # the derivative of a factor is +-1 by the corner's bit on that axis
        for g, d, b in zip(grad, (fy * fz, fx * fz, fx * fy), bits):
            if b:
                g += d[:, None] * c
            else:
                g -= d[:, None] * c
    return value, np.stack(grad, axis=2)


def unit_cube() -> Connectivity:
    """Single-tree connectivity (the plain octree case)."""
    verts = _CORNER_LATTICE.astype(np.float64)
    return Connectivity(verts, np.arange(8)[None, :])


def brick_connectivity(nx: int, ny: int, nz: int) -> Connectivity:
    """``nx x ny x nz`` grid of unit-cube trees (Cartesian multiblock).

    All trees share the same orientation, so every transform is a pure
    translation — the simplest nontrivial forest.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("brick dimensions must be positive")

    def vid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    verts = np.array(
        [
            (i, j, k)
            for k in range(nz + 1)
            for j in range(ny + 1)
            for i in range(nx + 1)
        ],
        dtype=np.float64,
    )
    trees = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                trees.append(
                    [
                        vid(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
                        for c in range(8)
                    ]
                )
    return Connectivity(verts, np.array(trees, dtype=np.int64))
