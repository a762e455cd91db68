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
from ..octree import OctantArray, directions_for
from ..octree.partree import owners_of_keys
from ..parallel import SimComm
from ..parallel.sanitize import sanitize_enabled
from .extract import Mesh, extract_leaves

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
    tally = pt.comm.stats.snapshot()
    violations = int(pt.gather()._violations(directions_for("corner")).sum())
    pt.comm.stats = tally
    if violations:
        raise UnbalancedTreeError(violations)


def collect_ghosts(
    pt: ParForest, markers: np.ndarray
) -> tuple[OctantArray, np.ndarray]:
    """Gather the ghost layer: all remote leaves adjacent (26-connectivity)
    to local leaves, in one alltoall.

    Each rank computes, per boundary leaf, the remote ranks owning any
    cell of the leaf's one-cell-dilated shell — by marker recursion, not
    sampling — and sends the leaf to exactly those ranks.  That is the
    one destination rule and exchange of the forest's balance
    (:func:`repro.forest.recursive.exchange_boundary_leaves`; Isaac et
    al., arXiv:1406.0089) on the one-tree ``ParForest``.  The mesh layer
    needs one-deep ghost layers, so the tree must be fully
    (corner-)balanced (checked under ``REPRO_SANITIZE=1``).  ``markers``
    are the tree's :meth:`~repro.forest.ParForest.markers`.

    Returns the exact adjacency layer ``(ghosts, ghost_owner_ranks)``,
    sorted by Morton key.
    """
    _check_corner_balanced(pt)
    comm = pt.comm
    got = exchange_boundary_leaves(pt, markers, pt.octs.pack())
    blk = np.concatenate(got, axis=0)
    if not len(blk):
        return OctantArray.empty(), np.zeros(0, dtype=np.int64)
    own = np.repeat(np.arange(comm.size, dtype=np.int64), [len(b) for b in got])
    # each ghost arrives once, from its owner in its curve order, and the
    # owners' segments follow the curve: the blocks are sorted by key
    return OctantArray.unpack(blk), own


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
    markers: np.ndarray         # the tree's partition markers (one allgather)
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
    """Parallel EXTRACTMESH: ghost layer, then the one numbering pass of
    :func:`~repro.mesh.extract.extract_leaves` over the owned + ghost
    union (node ownership, global numbering, shared-dof exchange plan).
    The tree's partition markers are allgathered once, here, and kept on
    the :class:`ParMesh`."""
    with obs.phase("ghost"):
        markers = pt.markers()
        ghosts, _ = collect_ghosts(pt, markers)
        # the owned leaves are one segment of the curve, so the sorted
        # ghosts fall before and after it: the merge of the two runs is
        # one split of the ghosts (none when this rank holds no leaves)
        cut = int(np.searchsorted(ghosts.keys(), pt.octs.keys()[:1]).sum())
        union = OctantArray.concat([ghosts[:cut], pt.octs, ghosts[cut:]])
        owned = slice(cut, cut + len(pt))

    mesh, numbering = extract_leaves(union, domain, pt, owned, markers)
    owned_elements = np.zeros(len(union), dtype=bool)
    owned_elements[owned] = True
    return ParMesh(comm=pt.comm, mesh=mesh, owned_elements=owned_elements,
                   markers=markers, **numbering)


def par_interpolate_at(pm: ParMesh, u_full: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Parallel INTERPOLATEFIELDS: evaluate this rank's FE field queries at
    arbitrary physical points, routing each query to the rank whose leaf
    range contains it (the markers ``pm`` was extracted with).

    ``u_full`` is the full node vector of ``pm.mesh``.  Returns one value
    per query point.
    """
    comm = pm.comm
    pts = np.asarray(points, dtype=np.float64)
    owners = owners_of_keys(pm.markers, forest_key(0, pm.mesh.point_keys(pts)))
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
