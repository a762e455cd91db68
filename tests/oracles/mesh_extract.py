"""EXTRACTMESH as it was before it became one numbering pass: the mesh of
a leaf set from ``np.unique`` of the corner keys (coordinates recovered
by ``%`` and ``//``), hanging nodes from the probe of every edge and face
(:mod:`.constraints`), the transitive closure into ``Z``; and the
distributed numbering that re-derived the node keys, ``argsort``-ed
them and Morton-encoded the nodes for ownership, over an owned + ghost
union ``lexsort``-ed by key and level."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.forest import forest_key
from repro.mesh.extract import _CORNER, Mesh, node_keys
from repro.mesh.parmesh import collect_ghosts
from repro.octree import ROOT_LEN, OctantArray, morton_encode
from repro.octree.partree import owners_of_keys, partition_markers

from .constraints import find_hanging_full, first_discovery_loop

_R1 = np.uint64(ROOT_LEN + 1)


def finest_level(mesh) -> np.ndarray:
    """Level of the finest element touching each node: levels coarse
    first, finer ones overwrite."""
    level = mesh.leaves.level
    finest = np.zeros(mesh.n_nodes, dtype=level.dtype)
    for lvl in np.unique(level):
        finest[mesh.element_nodes[level == lvl].ravel()] = lvl
    return finest


def extract_submesh(leaves, domain=(1.0, 1.0, 1.0)) -> Mesh:
    """The mesh of a sorted, fully balanced leaf set."""
    domain = np.asarray(domain, dtype=np.float64)
    h = leaves.lengths()
    if len(h) and int(h.min()) < 2:
        raise ValueError("mesh extraction requires element level <= MAX_LEVEL - 1")
    anchors = np.stack([leaves.x, leaves.y, leaves.z], axis=1)
    corner_xyz = anchors[:, None, :] + _CORNER[None, :, :] * h[:, None, None]
    keys, inverse = np.unique(node_keys(corner_xyz.reshape(-1, 3)), return_inverse=True)
    element_nodes = inverse.reshape(-1, 8).astype(np.int64)
    x = (keys % _R1).astype(np.int64)
    y = ((keys // _R1) % _R1).astype(np.int64)
    z = (keys // (_R1 * _R1)).astype(np.int64)
    coords = np.stack([x, y, z], axis=1)
    n_nodes = len(keys)

    child, parent, weight = first_discovery_loop(*find_hanging_full(keys, leaves))
    hanging = np.zeros(n_nodes, dtype=bool)
    hanging[child] = True
    direct = sp.csr_matrix((weight, (child, parent)), shape=(n_nodes, n_nodes))
    indep_nodes = np.flatnonzero(~hanging)
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    dof_of_node[indep_nodes] = np.arange(len(indep_nodes))
    closure = direct.copy()
    subst = sp.diags((~hanging).astype(np.float64)) + direct
    for _ in range(8):
        if len(child) == 0 or not hanging[closure.indices].any():
            break
        closure = closure @ subst
        closure.eliminate_zeros()
    else:
        raise AssertionError("hanging constraint closure did not terminate")
    hang_idx = np.flatnonzero(hanging)
    ch = closure[hang_idx]
    rows_h = np.repeat(hang_idx, np.diff(ch.indptr))
    cols_h = dof_of_node[ch.indices]
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


def extract_parmesh(pt, domain=(1.0, 1.0, 1.0)) -> dict:
    """This rank's distributed mesh as a dict of the ``ParMesh`` fields."""
    comm = pt.comm
    markers = partition_markers(pt)
    ghosts, ghost_owner = collect_ghosts(pt, markers)
    union = OctantArray.concat([pt.octs, ghosts])
    owner_elem = np.concatenate([np.full(len(pt), comm.rank, dtype=np.int64), ghost_owner])
    order = np.lexsort((union.level, union.keys()))
    union = union[order]
    owned_mask = owner_elem[order] == comm.rank
    mesh = extract_submesh(union, domain)

    clamped = np.minimum(mesh.node_coords_int, ROOT_LEN - 1)
    ckeys = morton_encode(clamped[:, 0], clamped[:, 1], clamped[:, 2])
    node_owner = owners_of_keys(markers, forest_key(0, ckeys))

    indep = mesh.indep_nodes
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[mesh.element_nodes[owned_mask].ravel()] = True
    hang_touched = np.flatnonzero(touched & mesh.hanging)
    if len(hang_touched):
        touched[indep[mesh.Z[hang_touched].indices]] = True
    active = touched[indep]

    dof_owner = node_owner[indep]
    owned_dofs = active & (dof_owner == comm.rank)
    n_owned = int(owned_dofs.sum())
    offset = comm.exscan(n_owned)
    n_global = comm.allreduce(n_owned)
    global_dof = np.full(len(indep), -1, dtype=np.int64)
    global_dof[owned_dofs] = offset + np.arange(n_owned)

    nkeys = node_keys(mesh.node_coords_int[indep])
    reqs, req_idx = [], []
    for r in range(comm.size):
        sel = np.flatnonzero(active & (dof_owner == r) & (r != comm.rank))
        reqs.append(nkeys[sel])
        req_idx.append(sel)
    got = comm.alltoall(reqs)
    sorter = np.argsort(nkeys)
    serve_plan = []
    for buf in got:
        if len(buf) == 0:
            serve_plan.append(np.zeros(0, dtype=np.int64))
            continue
        idx = sorter[np.searchsorted(nkeys[sorter], buf)]
        if not np.array_equal(nkeys[idx], buf):
            raise AssertionError("requested shared dof not found on owner")
        serve_plan.append(idx)
    replies = comm.alltoall([global_dof[serve_plan[r]] for r in range(comm.size)])
    for r, buf in enumerate(replies):
        if len(buf):
            global_dof[req_idx[r]] = buf
    return dict(
        mesh=mesh,
        owned_elements=owned_mask,
        node_owner=node_owner,
        active=active,
        global_dof=global_dof,
        n_global=n_global,
        send_plan=req_idx,
        serve_plan=serve_plan,
    )
