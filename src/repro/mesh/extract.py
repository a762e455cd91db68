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
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..forest.forest import forest_key
from ..octree import MAX_LEVEL, ROOT_LEN, key_range_size, morton_encode
from ..octree.traverse import owners_of_keys
from .opcache import operator_cache

if TYPE_CHECKING:
    from ..forest import Forest, ParForest

__all__ = ["Mesh", "extract_leaves", "extract_mesh", "node_keys"]

_R1 = np.uint64(ROOT_LEN + 1)
_LEVEL_BITS = MAX_LEVEL.bit_length()

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
        The (balanced, complete) octree the mesh was extracted from — the
        one-tree :class:`~repro.forest.forest.Forest` on ``unit_cube()``
        — or ``None`` for distributed submeshes (local + ghost octants),
        where ``leaves`` holds the octant set directly.
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

    tree: Forest | None
    leaves: "object"  # OctantArray of the mesh elements (= tree.octs when tree given)
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

    def point_keys(self, points: np.ndarray) -> np.ndarray:
        """Morton keys of ``(m, 3)`` points clamped into the root box:
        physical points (floating dtype, scaled by ``domain``) or lattice
        points (integer dtype, in finest-cell units).  A point on a +max
        face of the domain, or beyond it, lands in the last cell there."""
        p = np.asarray(points)
        if not np.issubdtype(p.dtype, np.integer):
            p = p / self.domain * ROOT_LEN
        pint = np.clip(p, 0, ROOT_LEN - 1).astype(np.int64)
        return morton_encode(pint[:, 0], pint[:, 1], pint[:, 2])

    def containing_leaf(self, points: np.ndarray) -> np.ndarray:
        """Index into ``leaves`` of the leaf holding each of the points
        (:meth:`point_keys` for the two kinds).  Raises ``ValueError`` for
        a point outside the leaf set (a submesh need not tile the box)."""
        pkeys = self.point_keys(points)
        keys = self.leaves.keys()
        eidx = np.searchsorted(keys, pkeys, side="right") - 1
        safe = np.maximum(eidx, 0)
        inside = (eidx >= 0) & (pkeys < keys[safe] + key_range_size(self.leaves.level[safe]))
        if not np.all(inside):
            raise ValueError("point outside the mesh's leaves")
        return eidx

    def interpolate_at(self, u_full: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the trilinear FE field at physical points.

        ``points`` is (m, 3) inside the domain; returns (m,) values.
        Used by INTERPOLATEFIELDS (field transfer between meshes).
        """
        pts = np.asarray(points, dtype=np.float64)
        eidx = self.containing_leaf(pts)
        pts = pts / self.domain  # unit cube
        leaves = self.leaves
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


def _sort_corners(leaves) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one sort: node coordinates, ``element_nodes`` and each node's
    finest touching level (coordinates and level from its first corner).

    A corner's key ranks it among the grid lines in use on each axis:
    monotone, so nodes come out in :func:`node_keys` order, and small, so
    ``MAX_LEVEL - level`` (finest first) and ``element * 8 + corner`` pack
    below it into one int64 down to the deepest forest level."""
    h = leaves.lengths()
    ne = len(h)
    if ne and int(h.min()) < 2:
        raise ValueError("mesh extraction requires element level <= MAX_LEVEL - 1")
    shift = int(h.min()).bit_length() - 1 if ne else 0
    axes = (leaves.x, leaves.y, leaves.z)
    key = np.zeros((1, ne), dtype=np.int64)
    for lo in axes[::-1]:  # (8, ne) in the end, row c = corner c of _CORNER
        ends = np.stack([lo, lo + h]) >> shift  # low and high face
        used = np.zeros((ROOT_LEN >> shift) + 1, dtype=bool)
        used[ends] = True
        line = np.cumsum(used) - 1
        key = (key[:, None] * (int(line[-1]) + 1) + line[ends]).reshape(2 * len(key), ne)
    bits = (8 * ne - 1).bit_length()
    low = bits + _LEVEL_BITS
    if ne and int(key[-1].max()) >> (63 - low):
        raise ValueError("corner keys of this leaf set do not fit in 63 bits")
    key <<= _LEVEL_BITS
    key |= MAX_LEVEL - leaves.level
    key <<= bits
    key |= np.arange(0, 8 * ne, 8) + np.arange(8)[:, None]
    packed = key.reshape(-1)  # sorted in place: first touch of fresh pages is costly
    packed.sort()
    new = np.ones(8 * ne, dtype=bool)
    new[1:] = (packed[1:] ^ packed[:-1]) >= 1 << low
    first = np.flatnonzero(new)
    packed &= (1 << bits) - 1  # the sorted corners' element * 8 + corner
    element_nodes = np.empty(8 * ne, dtype=np.int64)
    element_nodes[packed] = np.repeat(np.arange(len(first)), np.diff(first, append=8 * ne))
    el, c = packed[first] >> 3, packed[first] & 7
    coords = np.stack([lo.take(el) + (c >> a & 1) * h.take(el) for a, lo in enumerate(axes)], 1)
    return coords, element_nodes.reshape(-1, 8), leaves.level.take(el)


def _find_hanging_constraints(
    keys: np.ndarray,
    elements,  # OctantArray of the leaves
    element_nodes: np.ndarray,
    finest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Identify hanging nodes and their direct parent lists.

    ``keys`` are the sorted unique node keys that ``element_nodes``
    indexes, ``finest`` the level of the finest element at each node.
    Returns ``(child_idx, parent_idx, weight)`` COO triplets, a child
    repeated per parent and per coarse element that sees it.

    The midpoint of an element's edge (the centre of its face) can only
    be a mesh node if a smaller element has a corner there, and that
    element then also touches a corner of the edge (face).  So only
    edges and faces with *any* corner touched by a smaller element are
    probed (on an owned + ghost union the fine element on the far half
    of a coarse edge can be absent, so *all* would miss nodes), and the
    parents are the element's own corners.
    """
    fine = finest[element_nodes] > elements.level[:, None]  # (ne, 8)
    near = np.flatnonzero(fine.view(np.uint64)[:, 0])  # any corner fine
    fine, corners = fine[near], element_nodes.reshape(-1)

    # Edge midpoints hang with weight 1/2 to each endpoint, face centres
    # (= the midpoint of the face diagonal) with 1/4 to each face corner.
    # Node keys are linear in the coordinates, so the key of the midpoint
    # of corners a < b is a + (b - a) / 2 (the sum a + b can overflow).
    e_el, e_k = np.nonzero(fine[:, _EDGES[:, 0]] | fine[:, _EDGES[:, 1]])
    f_el, f_k = np.nonzero(
        (fine[:, _FACES[:, 0]] | fine[:, _FACES[:, 1]])
        | (fine[:, _FACES[:, 2]] | fine[:, _FACES[:, 3]])
    )
    ends = corners.take((near[e_el] * 8)[:, None] + _EDGES[e_k])  # (m_e, 2)
    quad = corners.take((near[f_el] * 8)[:, None] + _FACES[f_k])  # (m_f, 4)
    lo = keys[np.concatenate([ends[:, 0], quad[:, 0]])]
    hi = keys[np.concatenate([ends[:, 1], quad[:, 3]])]
    cand = lo + ((hi - lo) >> np.uint64(1))
    # Search in key order (a binary search is faster on sorted queries) and
    # keep it: every discovery of a node carries the same rows, so rows
    # sorted by child per kind are what _first_discovery sorts them to.
    order = np.argsort(cand)
    pos = np.minimum(np.searchsorted(keys, cand[order]), len(keys) - 1)
    hit = keys[pos] == cand[order]
    on_edge, on_face = hit & (order < len(ends)), hit & (order >= len(ends))
    child = np.concatenate([np.repeat(pos[on_edge], 2), np.repeat(pos[on_face], 4)])
    parent = np.concatenate(
        [ends[order[on_edge]].ravel(), quad[order[on_face] - len(ends)].ravel()]
    )
    weight = np.repeat([0.5, 0.25], [2 * on_edge.sum(), 4 * on_face.sum()])
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


def _constraint_operator(n_nodes: int, child, parent, weight):
    """``(hanging, Z, indep_nodes, dof_of_node)`` of the direct
    constraints.  Their transitive closure substitutes hanging parents by
    their own parents (``diag(independent) + direct``) until every parent
    is independent; parents belong to strictly coarser elements, so the
    chain ends."""
    hanging = np.zeros(n_nodes, dtype=bool)
    hanging[child] = True
    direct = sp.csr_matrix((weight, (child, parent)), shape=(n_nodes, n_nodes))
    indep_nodes = np.flatnonzero(~hanging)
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    dof_of_node[indep_nodes] = np.arange(len(indep_nodes))
    closure = direct
    for _ in range(8):
        if not hanging[closure.indices].any():
            break
        closure = closure @ (sp.diags((~hanging).astype(np.float64)) + direct)
        closure.eliminate_zeros()
    else:
        raise AssertionError("hanging constraint closure did not terminate")

    # Z in CSR: an identity row per independent node, the closure row
    # (empty at independent nodes) per hanging one, columns renumbered
    # to independent dofs (monotone, so sorted rows stay sorted)
    closure.sort_indices()
    cols_h = dof_of_node[closure.indices]
    if len(cols_h) and cols_h.min() < 0:
        raise AssertionError("closure row references a hanging parent")
    per_row = np.diff(closure.indptr)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(per_row + ~hanging, out=indptr[1:])
    at = np.repeat(indptr[:-1] - closure.indptr[:-1], per_row) + np.arange(closure.nnz)
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.ones(indptr[-1])
    indices[indptr[indep_nodes]] = np.arange(len(indep_nodes))
    indices[at], data[at] = cols_h, closure.data
    Z = sp.csr_matrix((data, indices, indptr), shape=(n_nodes, len(indep_nodes)))
    return hanging, Z, indep_nodes, dof_of_node


def _number_dofs(
    mesh: Mesh, keys: np.ndarray, pt: "ParForest", owned: slice, markers: np.ndarray
) -> dict:
    """The :class:`~repro.mesh.parmesh.ParMesh` numbering fields; ``keys``
    are the independent nodes' :func:`node_keys` (sorted, global) and
    ``markers`` the tree's partition markers.

    A node belongs to the rank whose leaf-key interval contains its
    (clamped) position, so its owner has it in its own active mesh."""
    comm = pt.comm
    node_owner = owners_of_keys(markers, forest_key(0, mesh.point_keys(mesh.node_coords_int)))

    # active: touched by an owned element, or a parent of a touched hanging node
    indep = mesh.indep_nodes
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[mesh.element_nodes[owned]] = True
    touched[indep[mesh.Z[np.flatnonzero(touched & mesh.hanging)].indices]] = True
    active = touched[indep]

    dof_owner = node_owner[indep]
    owned_dofs = active & (dof_owner == comm.rank)
    n_owned = int(owned_dofs.sum())
    offset = comm.exscan(n_owned)
    n_global = comm.allreduce(n_owned)
    global_dof = np.full(len(indep), -1, dtype=np.int64)
    global_dof[owned_dofs] = offset + np.arange(n_owned)

    # handshake: request the ids of active dofs owned elsewhere by node key
    need = np.flatnonzero(active & (dof_owner != comm.rank))
    need = need[np.argsort(dof_owner[need], kind="stable")]
    send_plan = np.split(need, np.searchsorted(dof_owner[need], np.arange(1, comm.size)))
    got = comm.alltoall([keys[s] for s in send_plan])
    serve_plan = [np.searchsorted(keys, buf) for buf in got]
    for idx, buf in zip(serve_plan, got):
        if len(buf) and not np.array_equal(keys[np.minimum(idx, len(keys) - 1)], buf):
            raise AssertionError("requested shared dof not found on owner")
    replies = comm.alltoall([global_dof[idx] for idx in serve_plan])
    for s, buf in zip(send_plan, replies):
        if np.any(buf < 0):
            raise AssertionError("owner returned unnumbered dof")
        global_dof[s] = buf
    return dict(node_owner=node_owner, active=active, global_dof=global_dof,
                n_global=n_global, send_plan=send_plan, serve_plan=serve_plan)


def extract_leaves(
    leaves, domain=(1.0, 1.0, 1.0), pt: "ParForest | None" = None,
    owned: slice | None = None, markers: np.ndarray | None = None,
) -> tuple[Mesh, dict | None]:
    """EXTRACTMESH of a sorted, fully balanced leaf set (a tree's leaves
    or a rank's owned + ghost union) in one pass over one sort of the
    corner keys.  A node hangs when the coarse element whose edge or face
    it bisects is in the set, which the ghost layer guarantees for every
    node of an owned element.  With ``pt`` (this rank's forest segment),
    ``owned`` (its slice of ``leaves``) and ``markers`` (the forest's
    partition markers) it also returns the dof numbering of
    :class:`~repro.mesh.parmesh.ParMesh` (collective)."""
    with obs.phase("nodes"):
        coords, element_nodes, finest = _sort_corners(leaves)
        keys = node_keys(coords)
    with obs.phase("constraints"):
        raw = _find_hanging_constraints(keys, leaves, element_nodes, finest)
        hanging, Z, indep, dof_of_node = _constraint_operator(len(keys), *_first_discovery(*raw))
    mesh = Mesh(tree=None, leaves=leaves, domain=np.asarray(domain, dtype=np.float64),
                node_coords_int=coords, element_nodes=element_nodes, hanging=hanging,
                Z=Z, indep_nodes=indep, dof_of_node=dof_of_node)
    if pt is None:
        return mesh, None
    with obs.phase("numbering"):
        return mesh, _number_dofs(mesh, keys[indep], pt, owned, markers)


def extract_mesh(tree: Forest, domain=(1.0, 1.0, 1.0)) -> Mesh:
    """The mesh of a complete, fully (corner-)balanced one-tree forest."""
    if tree.n_trees != 1:
        raise ValueError(f"extract_mesh takes a one-tree forest, not {tree.n_trees} trees")
    mesh, _ = extract_leaves(tree.octs, domain)
    mesh.tree = tree
    return mesh
