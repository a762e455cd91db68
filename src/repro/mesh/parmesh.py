"""Distributed mesh extraction (parallel EXTRACTMESH) and field exchange.

Implements the parallel half of Section IV-B's EXTRACTMESH: each rank
extracts a mesh from its own leaves — its segment of the one-tree
:class:`~repro.forest.ParForest` — plus one *ghost layer* (every remote
leaf adjacent to a local leaf through a face, edge, or corner), computes a
consistent global numbering of independent dofs, and sets up the
communication pattern that the PDE solver uses:

- **node ownership**: a node belongs to the rank owning the leaf that
  contains its (clamped) position — one lookup of ``forest_key(0, key)``
  among the forest's partition markers, computable locally;
- **sum-exchange** (``exchange_sum``): add per-rank assembly contributions
  at shared nodes and redistribute the totals (the FEM ghost update);
- **parallel INTERPOLATEFIELDS** (:func:`par_interpolate_at`): point
  evaluations routed to owners along the space-filling curve.

Everything is bulk-synchronous over :class:`~repro.parallel.SimComm`
alltoalls, exactly the communication structure the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..forest import ParForest, forest_key
from ..forest.recursive import exchange_boundary_leaves
from ..octree import OctantArray, ROOT_LEN, morton_encode
from ..octree.partree import owners_of_keys, partition_markers
from ..parallel import SimComm
from ..parallel.sanitize import sanitize_enabled
from .extract import Mesh, extract_submesh, node_keys

__all__ = [
    "ParMesh",
    "extract_parmesh",
    "collect_ghosts",
    "par_interpolate_at",
    "UnbalancedTreeError",
]


class UnbalancedTreeError(RuntimeError):
    """Raised under ``REPRO_SANITIZE=1`` when ghost collection is
    attempted on a tree that violates corner 2:1 balance — the one-deep
    ghost layer would silently be incomplete."""

    def __init__(self, violations: int):
        self.violations = violations
        super().__init__(
            "collect_ghosts requires a corner-balanced tree: "
            f"{violations} 2:1 balance violation(s) in the gathered tree"
        )


def _check_corner_balanced(pt: ParForest) -> None:
    """Sanitizer: verify the global tree is corner-balanced before ghost
    collection.  Collective (allgather) and symmetric — every rank sees
    the same violation count and raises together.  The check's own
    allgather is left out of the rank's communication tally, so a
    sanitized run counts the traffic an unsanitized one does."""
    if not sanitize_enabled():
        return
    from ..octree.balance import balance_violations
    from ..octree.partree import gather_tree

    tally = pt.comm.stats.snapshot()
    violations = balance_violations(gather_tree(pt), "corner")
    pt.comm.stats = tally
    if violations:
        raise UnbalancedTreeError(violations)


def collect_ghosts(pt: ParForest) -> tuple[OctantArray, np.ndarray]:
    """Gather the ghost layer: all remote leaves adjacent (26-connectivity)
    to local leaves, in one alltoall.

    Each rank computes, per boundary leaf, the remote ranks owning any
    cell of the leaf's one-cell-dilated shell — by marker recursion, not
    sampling — and sends the leaf to exactly those ranks.  That is the
    one destination rule and exchange of the forest's balance
    (:func:`repro.forest.recursive.exchange_boundary_leaves`; Isaac et
    al., arXiv:1406.0089) on the one-tree ``ParForest``.  The mesh layer
    needs one-deep ghost layers, so the tree must be fully
    (corner-)balanced (checked under ``REPRO_SANITIZE=1``).

    Returns the exact adjacency layer ``(ghosts, ghost_owner_ranks)``,
    sorted by Morton key.
    """
    _check_corner_balanced(pt)
    comm = pt.comm
    got = exchange_boundary_leaves(pt, pt.markers(), pt.octs.pack())
    blk = np.concatenate(got, axis=0)
    if not len(blk):
        return OctantArray.empty(), np.zeros(0, dtype=np.int64)
    own = np.repeat(np.arange(comm.size, dtype=np.int64), [len(b) for b in got])
    ghosts = OctantArray.unpack(blk)
    # each ghost arrives exactly once (from its owner): sort by key only
    order = np.argsort(ghosts.keys())
    return ghosts[order], own[order]


@dataclass
class ParMesh:
    """One rank's view of the distributed mesh.

    The mesh spans the union of owned and ghost elements; arrays indexed
    by "node" refer to this union mesh's nodes.
    """

    comm: SimComm
    mesh: Mesh                 # union (local + ghost) submesh
    owned_elements: np.ndarray  # mask over union elements
    node_owner: np.ndarray      # owning rank per union-mesh node
    active: np.ndarray          # independent dofs touched by owned elements
    global_dof: np.ndarray      # global id per independent dof (-1 inactive)
    n_global: int               # global number of independent dofs
    # exchange plan
    send_plan: list = field(default_factory=list)   # per rank: my dof idx to send
    serve_plan: list = field(default_factory=list)  # per rank: my dof idx they reference

    @property
    def n_owned_elements(self) -> int:
        return int(self.owned_elements.sum())

    def global_element_count(self) -> int:
        return self.comm.allreduce(self.n_owned_elements)

    # -- communication -----------------------------------------------------------

    def exchange_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum per-rank contributions at shared independent dofs.

        ``values`` is over independent dofs of the union mesh (entries at
        inactive dofs are ignored).  Returns the globally assembled values
        at all active dofs (inactive entries zeroed).
        """
        comm = self.comm
        # 1. send my contributions at dofs owned by others to their owner
        out = [values[idx] for idx in self.send_plan]
        got = comm.alltoall(out)
        acc = values.copy()
        acc[~self.active] = 0.0
        for r, buf in enumerate(got):
            if len(buf):
                np.add.at(acc, self.serve_plan[r], buf)
        # 2. owners return the assembled totals
        back = comm.alltoall([acc[self.serve_plan[r]] for r in range(comm.size)])
        for r, buf in enumerate(back):
            if len(buf):
                acc[self.send_plan[r]] = buf
        return acc

    def consistent(self, values: np.ndarray) -> np.ndarray:
        """Overwrite non-owned active dofs with the owner's value."""
        comm = self.comm
        back = comm.alltoall([values[self.serve_plan[r]] for r in range(comm.size)])
        out = values.copy()
        for r, buf in enumerate(back):
            if len(buf):
                out[self.send_plan[r]] = buf
        return out

    def gather_global(self, values: np.ndarray) -> np.ndarray:
        """Assemble the full global dof vector on every rank (testing)."""
        mine = self.node_owner[self.mesh.indep_nodes] == self.comm.rank
        gids = self.global_dof[mine]
        vals = values[mine]
        parts = self.comm.allgather(np.stack([gids.astype(np.float64), vals], axis=1))
        out = np.zeros(self.n_global)
        for p in parts:
            if len(p):
                out[p[:, 0].astype(np.int64)] = p[:, 1]
        return out


def extract_parmesh(pt: ParForest, domain=(1.0, 1.0, 1.0)) -> ParMesh:
    """Parallel EXTRACTMESH: ghost layer, union submesh, node ownership,
    global numbering, and the shared-dof exchange plan."""
    comm = pt.comm
    with obs.phase("ghost"):
        ghosts, ghost_owner = collect_ghosts(pt)
        # union, sorted by Morton key; track ownership
        union = OctantArray.concat([pt.octs, ghosts])
        owner_elem = np.concatenate(
            [np.full(len(pt), comm.rank, dtype=np.int64), ghost_owner]
        )
        order = np.lexsort((union.level, union.keys()))
        union = union[order]
        owner_elem = owner_elem[order]
        owned_mask = owner_elem == comm.rank

    mesh = extract_submesh(union, domain)

    with obs.phase("numbering"):
        # node ownership: the rank whose leaf-key interval contains the node's
        # (clamped) position — i.e. the owner of the leaf the node sits on the
        # corner of, in the Morton sense.  Deterministic, globally consistent,
        # and computable locally; the owning leaf touches the node, so the
        # owner always has the node in its own (active) mesh.
        markers = partition_markers(pt)
        clamped = np.minimum(mesh.node_coords_int, ROOT_LEN - 1)
        ckeys = morton_encode(clamped[:, 0], clamped[:, 1], clamped[:, 2])
        node_owner = owners_of_keys(markers, forest_key(0, ckeys))

        # active independent dofs: touched by at least one owned element
        indep = mesh.indep_nodes
        touched = np.zeros(mesh.n_nodes, dtype=bool)
        touched[mesh.element_nodes[owned_mask].ravel()] = True
        # hanging nodes activate their parents
        hang_touched = np.flatnonzero(touched & mesh.hanging)
        if len(hang_touched):
            rows = mesh.Z[hang_touched]
            touched[indep[rows.indices]] = True
        active = touched[indep]

        # global numbering of owned active dofs
        dof_owner = node_owner[indep]
        owned_dofs = active & (dof_owner == comm.rank)
        n_owned = int(owned_dofs.sum())
        offset = comm.exscan(n_owned)
        n_global = comm.allreduce(n_owned)
        global_dof = np.full(len(indep), -1, dtype=np.int64)
        global_dof[owned_dofs] = offset + np.arange(n_owned)

        # handshake: request ids of active dofs owned elsewhere, keyed by the
        # node coordinate key (globally unique)
        nkeys = node_keys(mesh.node_coords_int[indep])
        reqs = []
        req_idx = []
        for r in range(comm.size):
            sel = np.flatnonzero(active & (dof_owner == r) & (r != comm.rank))
            reqs.append(nkeys[sel])
            req_idx.append(sel)
        got = comm.alltoall(reqs)
        # serve: map requested keys to my dof indices
        sorter = np.argsort(nkeys)
        serve_plan = []
        for r, buf in enumerate(got):
            if len(buf) == 0:
                serve_plan.append(np.zeros(0, dtype=np.int64))
                continue
            pos = np.searchsorted(nkeys[sorter], buf)
            idx = sorter[pos]
            if not np.array_equal(nkeys[idx], buf):
                raise AssertionError("requested shared dof not found on owner")
            serve_plan.append(idx)
        replies = comm.alltoall([global_dof[serve_plan[r]] for r in range(comm.size)])
        for r, buf in enumerate(replies):
            if len(buf):
                if np.any(buf < 0):
                    raise AssertionError("owner returned unnumbered dof")
                global_dof[req_idx[r]] = buf

    return ParMesh(
        comm=comm,
        mesh=mesh,
        owned_elements=owned_mask,
        node_owner=node_owner,
        active=active,
        global_dof=global_dof,
        n_global=n_global,
        send_plan=req_idx,
        serve_plan=serve_plan,
    )


def par_interpolate_at(
    pm: ParMesh, markers: np.ndarray, u_full: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Parallel INTERPOLATEFIELDS: evaluate this rank's FE field queries at
    arbitrary physical points, routing each query to the rank whose leaf
    range contains it (``markers``: the *source* tree's
    :func:`~repro.octree.partree.partition_markers`).

    ``u_full`` is the full node vector of ``pm.mesh``.  Returns one value
    per query point.
    """
    comm = pm.comm
    pts = np.asarray(points, dtype=np.float64)
    unit = np.clip(pts / pm.mesh.domain, 0.0, 1.0 - 1e-15)
    pint = (unit * ROOT_LEN).astype(np.int64)
    pkeys = morton_encode(pint[:, 0], pint[:, 1], pint[:, 2])
    owners = owners_of_keys(markers, forest_key(0, pkeys))
    vals = np.empty(len(pts))
    send = []
    send_idx = []
    for r in range(comm.size):
        sel = np.flatnonzero(owners == r)
        send.append(pts[sel])
        send_idx.append(sel)
    got = comm.alltoall(send)
    replies = []
    for buf in got:
        if len(buf) == 0:
            replies.append(np.zeros(0))
            continue
        replies.append(pm.mesh.interpolate_at(u_full, buf))
    back = comm.alltoall(replies)
    for r, buf in enumerate(back):
        if len(buf):
            vals[send_idx[r]] = buf
    return vals
