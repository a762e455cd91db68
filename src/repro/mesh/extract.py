"""EXTRACTMESH: build a hexahedral finite element mesh from an octree.

Each leaf octant becomes a trilinear hexahedral element (Section IV).
Nonconforming coarse-to-fine transitions produce *hanging nodes* on faces
and edges; these carry no degrees of freedom — algebraic constraints
interpolate them from the independent nodes of the coarse side:

- an edge-midpoint hanging node is the average of the two edge endpoints;
- a face-center hanging node is the average of the four face corners.

Constraint parents may themselves be hanging (a fine element's corner can
sit on a coarser neighbor's edge); the closure is resolved transitively,
which terminates because parents always belong to strictly coarser
elements.  The full constraint operator is assembled as a sparse matrix
``Z`` mapping independent dofs to all mesh nodes, so a constrained
Galerkin operator is simply ``Z.T @ A_full @ Z`` — the element-level
constraint enforcement the paper describes, in matrix form.

The mesh pipeline expects a *fully* 2:1 balanced tree (corner
connectivity).  The paper balances faces and edges only; we use the
stronger p4est-style full balance so that ghost layers and node ownership
in the distributed mesh (see :mod:`repro.mesh.parmesh`) stay one level
deep.  Full balance is a superset, so all paper invariants hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..octree import ROOT_LEN
from ..octree.linear import LinearOctree as _LinearOctree
from .opcache import operator_cache

__all__ = ["Mesh", "extract_mesh", "extract_submesh", "node_keys"]

_R1 = np.uint64(ROOT_LEN + 1)

# Corner offsets in units of the element edge length, vertex i at
# ((i & 1), (i >> 1) & 1, (i >> 2) & 1) — x fastest, matching OctantArray.
_CORNER = np.array(
    [[(i & 1), (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.int64
)

# The 12 edges as corner-index pairs (local vertex numbering above).
_EDGES = np.array(
    [
        (0, 1), (2, 3), (4, 5), (6, 7),  # x-directed
        (0, 2), (1, 3), (4, 6), (5, 7),  # y-directed
        (0, 4), (1, 5), (2, 6), (3, 7),  # z-directed
    ],
    dtype=np.int64,
)

# The 6 faces as corner-index quadruples.
_FACES = np.array(
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


def node_keys(coords: np.ndarray) -> np.ndarray:
    """Collapse integer node coordinates (values in [0, ROOT_LEN]) to a
    unique uint64 key: ``(z*(R+1) + y)*(R+1) + x``."""
    c = coords.astype(np.uint64)
    return (c[:, 2] * _R1 + c[:, 1]) * _R1 + c[:, 0]


@dataclass
class Mesh:
    """A hexahedral finite element mesh extracted from an octree.

    Attributes
    ----------
    tree:
        The (balanced, complete) octree the mesh was extracted from, or
        ``None`` for distributed submeshes (local + ghost octants), where
        ``leaves`` holds the octant set directly.
    domain:
        Physical size ``(Lx, Ly, Lz)`` of the root box; the unit cube is
        scaled anisotropically (this is how RHEA's 8 x 4 x 1 Cartesian
        domain is realized on a single octree).
    node_coords_int:
        ``(n_nodes, 3)`` integer node coordinates in finest-cell units.
    element_nodes:
        ``(n_elements, 8)`` node indices per element, vertex-ordered with
        x fastest (matching trilinear shape function ordering).
    hanging:
        Boolean mask of hanging nodes.
    Z:
        ``(n_nodes, n_independent)`` CSR constraint operator; row ``i``
        expresses node ``i`` as a combination of independent dofs.
    indep_nodes:
        Node index of each independent dof (column order of ``Z``).
    """

    tree: _LinearOctree | None
    leaves: "object"  # OctantArray of the mesh elements (= tree.leaves when tree given)
    domain: np.ndarray
    node_coords_int: np.ndarray
    element_nodes: np.ndarray
    hanging: np.ndarray
    Z: sp.csr_matrix
    indep_nodes: np.ndarray
    dof_of_node: np.ndarray = field(repr=False)  # -1 for hanging nodes

    # -- sizes --------------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return self.element_nodes.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.node_coords_int.shape[0]

    @property
    def n_independent(self) -> int:
        return len(self.indep_nodes)

    # -- geometry ------------------------------------------------------------

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 3) physical node coordinates."""
        return self.node_coords_int.astype(np.float64) / ROOT_LEN * self.domain

    def element_sizes(self) -> np.ndarray:
        """(n_elements, 3) physical element edge lengths (hx, hy, hz)."""

        def build():
            h = self.leaves.lengths().astype(np.float64) / ROOT_LEN
            return h[:, None] * self.domain[None, :]

        return operator_cache(self).get("element_sizes", build)

    def element_centers(self) -> np.ndarray:
        return operator_cache(self).get(
            "element_centers", lambda: self.leaves.centers() * self.domain
        )

    def boundary_node_mask(self, axis: int | None = None, side: int | None = None) -> np.ndarray:
        """Nodes on the domain boundary; optionally one face only
        (``axis`` in 0..2, ``side`` 0 for the low face, 1 for the high)."""
        c = self.node_coords_int
        if axis is None:
            return np.any((c == 0) | (c == ROOT_LEN), axis=1)
        val = 0 if side == 0 else ROOT_LEN
        return c[:, axis] == val

    # -- constrained field handling --------------------------------------------

    def expand(self, u_indep: np.ndarray) -> np.ndarray:
        """Independent dof vector -> full node vector (hanging nodes
        interpolated).  Works on (n_indep,) or (n_indep, k) arrays."""
        return self.Z @ u_indep

    def interpolate_at(self, u_full: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the trilinear FE field at physical points.

        ``points`` is (m, 3) inside the domain; returns (m,) values.
        Used by INTERPOLATEFIELDS (field transfer between meshes).
        """
        pts = np.asarray(points, dtype=np.float64) / self.domain  # unit cube
        pint = np.clip((pts * ROOT_LEN).astype(np.int64), 0, ROOT_LEN - 1)
        from ..octree import morton_encode

        pkeys = morton_encode(pint[:, 0], pint[:, 1], pint[:, 2])
        eidx = np.searchsorted(self.leaves.keys(), pkeys, side="right") - 1
        leaves = self.leaves
        # containment check (meaningful for submeshes whose leaves do not
        # tile the whole domain)
        from ..octree import key_range_size

        safe = np.clip(eidx, 0, len(leaves) - 1)
        start = leaves.keys()[safe]
        inside = (eidx >= 0) & (pkeys >= start) & (
            pkeys < start + key_range_size(leaves.level[safe])
        )
        if not np.all(inside):
            raise ValueError("interpolation point outside the local mesh")
        eidx = safe
        h = leaves.lengths().astype(np.float64)
        # local coordinates in [0, 1]^3 within the containing element
        anchors = np.stack([leaves.x, leaves.y, leaves.z], axis=1).astype(np.float64)
        loc = (pts * ROOT_LEN - anchors[eidx]) / h[eidx, None]
        loc = np.clip(loc, 0.0, 1.0)
        xi, eta, zeta = loc[:, 0], loc[:, 1], loc[:, 2]
        # trilinear shape functions, vertex order x fastest
        sx = np.stack([1 - xi, xi], axis=1)
        sy = np.stack([1 - eta, eta], axis=1)
        sz = np.stack([1 - zeta, zeta], axis=1)
        vals = np.zeros(len(pts), dtype=np.float64)
        en = self.element_nodes[eidx]
        for i in range(8):
            w = sx[:, i & 1] * sy[:, (i >> 1) & 1] * sz[:, (i >> 2) & 1]
            vals += w * u_full[en[:, i]]
        return vals


def _find_hanging_constraints(
    keys: np.ndarray,
    elements,  # OctantArray of the leaves
    element_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identify hanging nodes and their direct parent lists.

    ``keys`` are the sorted unique node keys that ``element_nodes``
    indexes.  Returns ``(child_idx, parent_idx, weight)`` COO triplets
    where ``child_idx`` are node indices of hanging nodes (repeated per
    parent and per coarse element that sees them).

    The midpoint of an element's edge (the centre of its face) can only
    be a mesh node if a smaller element has a corner there, and that
    element then also touches a corner of the edge (face).  So only
    edges and faces with *any* corner touched by a smaller element are
    probed (on an owned + ghost union the fine element on the far half
    of a coarse edge can be absent, so *all* would miss nodes), and the
    parents are the element's own corners.
    """
    h = elements.lengths()
    if len(h) and int(h.min()) < 2:
        raise ValueError("mesh extraction requires element level <= MAX_LEVEL - 1")
    # smallest element touching each node: coarse levels first, fine overwrite
    h_node = np.zeros(len(keys), dtype=h.dtype)
    for size in np.unique(h)[::-1]:
        h_node[element_nodes[h == size].ravel()] = size
    fine = h_node[element_nodes] < h[:, None]  # (ne, 8)

    # Edge midpoints hang with weight 1/2 to each endpoint, face centres
    # (= the midpoint of the face diagonal) with 1/4 to each face corner.
    # Node keys are linear in the coordinates, so the key of the midpoint
    # of corners a < b is a + (b - a) / 2 (the sum a + b can overflow).
    e_el, e_k = np.nonzero(fine[:, _EDGES].any(axis=2))
    f_el, f_k = np.nonzero(fine[:, _FACES].any(axis=2))
    ends = element_nodes[e_el[:, None], _EDGES[e_k]]  # (m_e, 2)
    quad = element_nodes[f_el[:, None], _FACES[f_k]]  # (m_f, 4)
    lo = keys[np.concatenate([ends[:, 0], quad[:, 0]])]
    hi = keys[np.concatenate([ends[:, 1], quad[:, 3]])]
    cand = lo + ((hi - lo) >> np.uint64(1))
    pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
    (pos_e, pos_f), (hit_e, hit_f) = (
        np.split(a, [len(ends)]) for a in (pos, keys[pos] == cand)
    )
    child = np.concatenate([np.repeat(pos_e[hit_e], 2), np.repeat(pos_f[hit_f], 4)])
    parent = np.concatenate([ends[hit_e].ravel(), quad[hit_f].ravel()])
    weight = np.repeat([0.5, 0.25], [2 * hit_e.sum(), 4 * hit_f.sum()])
    if np.any(parent < 0):
        raise AssertionError("constraint parent is not a mesh node")
    return child, parent, weight


def _first_discovery(
    child: np.ndarray, parent: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate constraint rows: a hanging node is discovered once per
    coarse element touching it and all discoveries agree, so keep the
    first block of rows of each node (2 rows at weight 1/2 for an edge
    node, 4 at 1/4 for a face node)."""
    order = np.argsort(child, kind="stable")
    child, parent, weight = child[order], parent[order], weight[order]
    new = np.ones(len(child), dtype=bool)
    new[1:] = child[1:] != child[:-1]
    starts = np.flatnonzero(new)
    take = np.where(weight[starts] == 0.5, 2, 4)
    first = np.cumsum(take) - take
    keep = np.repeat(starts - first, take) + np.arange(take.sum())
    return child[keep], parent[keep], weight[keep]


def extract_mesh(tree: _LinearOctree, domain=(1.0, 1.0, 1.0)) -> Mesh:
    """Extract the hexahedral mesh and hanging-node constraints.

    ``tree`` must be complete and fully (corner-)balanced.
    """
    mesh = extract_submesh(tree.leaves, domain)
    mesh.tree = tree
    return mesh


def extract_submesh(leaves, domain=(1.0, 1.0, 1.0)) -> Mesh:
    """Extract a mesh from an arbitrary (sorted, fully balanced) octant
    set — the local + ghost element union of a distributed mesh.

    Hanging-node classification is local: a node is detected as hanging
    when the coarse element whose face/edge it bisects is present in the
    set, which the ghost layer guarantees for all nodes of owned elements.
    """
    domain = np.asarray(domain, dtype=np.float64)
    with obs.phase("nodes"):
        h = leaves.lengths()
        anchors = np.stack([leaves.x, leaves.y, leaves.z], axis=1)
        corner_xyz = anchors[:, None, :] + _CORNER[None, :, :] * h[:, None, None]
        all_keys = node_keys(corner_xyz.reshape(-1, 3))
        keys, inverse = np.unique(all_keys, return_inverse=True)
        element_nodes = inverse.reshape(-1, 8).astype(np.int64)
        # recover coordinates of the unique nodes
        x = (keys % _R1).astype(np.int64)
        y = ((keys // _R1) % _R1).astype(np.int64)
        z = (keys // (_R1 * _R1)).astype(np.int64)
        coords = np.stack([x, y, z], axis=1)
        n_nodes = len(keys)

    with obs.phase("hanging"):
        child, parent, weight = _first_discovery(
            *_find_hanging_constraints(keys, leaves, element_nodes)
        )
        hanging = np.zeros(n_nodes, dtype=bool)
        hanging[child] = True

    with obs.phase("closure"):
        direct = sp.csr_matrix((weight, (child, parent)), shape=(n_nodes, n_nodes))
        indep_nodes = np.flatnonzero(~hanging)
        dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
        dof_of_node[indep_nodes] = np.arange(len(indep_nodes))

        # Transitive closure: substitute hanging parents by their own parents
        # until every parent is independent.  S = diag(independent) + direct
        # keeps independent columns and expands hanging ones; parents belong to
        # strictly coarser elements so the chain terminates.
        closure = direct.copy()
        subst = sp.diags((~hanging).astype(np.float64)) + direct
        for _ in range(8):
            if len(child) == 0 or not hanging[closure.indices].any():
                break
            closure = closure @ subst
            closure.eliminate_zeros()
        else:
            raise AssertionError("hanging constraint closure did not terminate")

        # Assemble Z in COO form: identity rows for independent nodes, closure
        # rows for hanging nodes, columns renumbered to independent dofs.
        hang_idx = np.flatnonzero(hanging)
        ch = closure[hang_idx]
        rows_h = np.repeat(hang_idx, np.diff(ch.indptr))
        cols_h = dof_of_node[ch.indices]
        if len(cols_h) and cols_h.min() < 0:
            raise AssertionError("closure row references a hanging parent")
        Z = sp.csr_matrix(
            (
                np.concatenate([np.ones(len(indep_nodes)), ch.data]),
                (
                    np.concatenate([indep_nodes, rows_h]),
                    np.concatenate([np.arange(len(indep_nodes)), cols_h]),
                ),
            ),
            shape=(n_nodes, len(indep_nodes)),
        )

    return Mesh(
        tree=None,
        leaves=leaves,
        domain=domain,
        node_coords_int=coords,
        element_nodes=element_nodes,
        hanging=hanging,
        Z=Z,
        indep_nodes=indep_nodes,
        dof_of_node=dof_of_node,
    )
