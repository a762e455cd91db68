"""Recursive face iteration: classify every (element, face) pair of a
complete 2:1-balanced forest by sort-merge joins on face descriptors.

This is the p4est-``iterate`` style classifier: every element face has a
*native* descriptor ``(tree, face, plane, u, v, level)`` (the position of
its plane along the face normal and its tangential anchor), and every
element face also names the descriptor its neighbor would have: the
same-size region beyond the face, seen from the other side.  Inside a
tree that region is a translation; through a connected tree face it is
moved into the neighbor tree's frame by the connectivity's integer
lattice transform ``p_B = R p_A + o``, so in-tree faces, translated
gluings and the rotated gluings between cubed-sphere caps are one case.
Two sort-merge joins of the wanted descriptors against the native ones
(sharing one sort) classify everything: an exact match is a *conforming*
neighbor, and a match of the coarse-aligned key ``(..., u & ~(2h-1),
v & ~(2h-1), level - 1)`` is a neighbor twice my size, which thereby
learns one of its four fine neighbors.  Leaves partition space, so the joins are mutually exclusive
and, on a complete face-2:1-balanced forest, exhaustive; a face matched
by neither is a structural error and raises, in-tree or across trees.

The tests compare the result with per-face containment probes
(``tests/oracles/dg_faces.py``).  Connectivities with a tree face glued
to itself (periodic self-connection) are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..octree import MAX_LEVEL, ROOT_LEN
from ..octree.faces import row_lookup
from .connectivity import FACE_NORMALS

__all__ = ["FaceClassification", "match_faces"]

#: tangential axes of each face, lower axis first
_FACE_TANGENTS = np.array([(1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1)])
#: a face plane lies in [0, ROOT_LEN]: one bit more than an anchor
_BITS = MAX_LEVEL + 1


@dataclass
class FaceClassification:
    """Per-(element, face) classification, probe-compatible.

    ``subs[e, f, q]`` holds the four half-size neighbors of a coarse
    face in quadrant order ``q = 2*j2 + j1`` (j1 along the lower
    tangential axis of face ``f`` in the coarse element's own frame) —
    the order the quarter probes are sampled in.
    """

    valid: np.ndarray  # (ne, 6) a neighbor exists (in-tree or cross-tree)
    same: np.ndarray  # (ne, 6) neighbor is in the same tree
    idrive: np.ndarray  # (ne, 6) this element's face drives the quadrature
    coarse: np.ndarray  # (ne, 6) four half-size neighbors drive
    g_nb: np.ndarray  # (ne, 6) neighbor element index for idrive faces
    subs: np.ndarray  # (ne, 6, 4) fine neighbor indices for coarse faces


def _plane_uv(lo, face, h) -> tuple:
    """Plane position along the normal and tangential anchor of face
    ``face`` of the cubes ``[lo, lo + h)^3``."""
    along = np.take_along_axis(lo, (face >> 1)[..., None], axis=-1)[..., 0]
    uv = np.take_along_axis(lo, _FACE_TANGENTS[face], axis=-1)
    return along + (face & 1) * h, uv[..., 0], uv[..., 1]


def _keys(tree, face, level, plane, u, v) -> tuple:
    """The descriptor ``(tree, face, level, plane, u, v)`` packed into two
    join columns (fewer sort passes than six)."""
    return (((tree * 8 + face) * 32 + level) << _BITS) | plane, (u << _BITS) | v


def match_faces(tids: np.ndarray, octs, conn) -> FaceClassification:
    """Classify all faces of the flattened forest ``(tids, octs)``.

    ``octs`` is the tree-major concatenation of per-tree leaves and
    ``tids`` the tree id per element; indices in the result refer to this
    flattened ordering (the DG builder's global element index).  Raises
    ``ValueError`` naming the first (tree, element, face) whose neighbor
    is neither its size, twice its size, nor four elements half its size.
    """
    ne = len(octs)
    shape = (ne, 6)
    faces = np.broadcast_to(np.arange(6), shape)
    level = np.broadcast_to(octs.level.astype(np.int64)[:, None], shape)
    h = np.broadcast_to(octs.lengths().astype(np.int64)[:, None], shape)
    anchors = np.stack([octs.x, octs.y, octs.z], axis=1).astype(np.int64)
    tree = np.broadcast_to(tids.astype(np.int64)[:, None], shape)
    native = _keys(tree, faces, level, *_plane_uv(anchors[:, None, :], faces, h))
    table = tuple(c.ravel() for c in native)  # row 6 e + f

    # the same-size region beyond each face, in the frame of the tree it
    # lies in, and the face of it that touches mine
    lo = anchors[:, None, :] + FACE_NORMALS[None] * h[:, :, None]
    same = ((lo >= 0) & (lo < ROOT_LEN)).all(axis=2)
    e, f = np.nonzero(~same)
    R, o = conn.face_R[tree[e, f], f], conn.face_o[tree[e, f], f]
    # a lattice isometry maps a cube's extreme corners to extreme corners
    p0 = np.einsum("mij,mj->mi", R, lo[e, f]) + o
    p1 = np.einsum("mij,mj->mi", R, lo[e, f] + h[e, f, None]) + o
    lo[e, f] = np.minimum(p0, p1)
    nb_tree, nb_face = tree.copy(), faces ^ 1
    nb_tree[e, f] = conn.face_tree[tree[e, f], f]  # -1: forest boundary
    nb_face[e, f] = conn.face_face[tree[e, f], f]
    valid = nb_tree >= 0

    # the descriptor my neighbor's face has if it is my size, and if it is
    # twice my size: my tangential anchor rounded down to the coarse grid,
    # one level up.  The two joins share one sort of the native table.
    e, f = np.nonzero(valid)
    t, fb, lv, hh = nb_tree[e, f], nb_face[e, f], level[e, f], h[e, f]
    plane, u, v = _plane_uv(lo[e, f], fb, hh)
    big = ~(2 * hh - 1)
    same_size = _keys(t, fb, lv, plane, u, v)
    twice = _keys(t, fb, lv - 1, plane, u & big, v & big)
    j = row_lookup(tuple(np.concatenate(c) for c in zip(same_size, twice)), table)
    j, j2 = j[: len(e)], j[len(e) :]

    idrive = np.zeros(shape, dtype=bool)
    coarse = np.zeros(shape, dtype=bool)
    g_nb = np.zeros(shape, dtype=np.int64)
    subs = np.full((ne, 6, 4), -1, dtype=np.int64)
    hit = j >= 0
    idrive[e[hit], f[hit]] = True
    g_nb[e[hit], f[hit]] = j[hit] // 6
    # a neighbor twice my size learns me as the quadrant of its face I cover
    hit = j2 >= 0
    e, f, c, fc = e[hit], f[hit], j2[hit] // 6, j2[hit] % 6
    idrive[e, f] = True
    g_nb[e, f] = c
    coarse[c, fc] = True
    subs[c, fc, 2 * ((v & hh) > 0)[hit] + ((u & hh) > 0)[hit]] = e

    bad = valid & ~idrive & ~(coarse & (subs >= 0).all(axis=2))
    if bad.any():
        e, f = (int(i[0]) for i in np.nonzero(bad))
        raise ValueError(
            f"forest is not complete and 2:1 face-balanced: face {f} of "
            f"element {e} (tree {int(tids[e])}, level {int(octs.level[e])}) "
            "has no neighbor of its size, twice its size, or four of half "
            "its size"
        )
    return FaceClassification(
        valid=valid, same=same, idrive=idrive, coarse=coarse, g_nb=g_nb, subs=subs
    )
