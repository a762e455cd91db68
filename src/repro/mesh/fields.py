"""INTERPOLATEFIELDS: move finite element fields between meshes.

After the octree is adapted (coarsen + refine + balance) a new mesh is
extracted and the solution fields must follow.  The paper interpolates
between two trilinear meshes that differ by at most one level per leaf;
with trilinear elements this is equivalent to evaluating the old FE field
at the new node locations, which is what we do:

- for refined regions the new nodes lie inside old elements and the
  evaluation is the exact trilinear embedding (no accuracy loss);
- for coarsened regions the evaluation is nodal injection (sampling the
  old field at the surviving coarse nodes), the standard choice.

The serial entry point is :func:`interpolate_fields`; the distributed
variant lives with the distributed mesh in :mod:`repro.mesh.parmesh`.
"""

from __future__ import annotations

import numpy as np

from .extract import Mesh

__all__ = ["interpolate_fields"]


def interpolate_fields(old_mesh: Mesh, u_full_old: np.ndarray, new_mesh: Mesh) -> np.ndarray:
    """Transfer a nodal field to a new mesh extracted from an adapted tree.

    Parameters
    ----------
    old_mesh, new_mesh:
        Meshes over the same physical domain.
    u_full_old:
        Full node vector on ``old_mesh`` (hanging nodes already consistent,
        i.e. ``u_full = Z @ u_indep``).

    Returns
    -------
    Full node vector on ``new_mesh``.  The returned field is made
    hanging-consistent by re-expanding its independent values, so it can
    be used directly by assembly.
    """
    if not np.allclose(old_mesh.domain, new_mesh.domain):
        raise ValueError("meshes must share the physical domain")
    # Evaluate at the independent nodes only and re-impose hanging
    # consistency on the new mesh.  For nested trilinear meshes the
    # evaluation is already consistent; this guards the coarsening
    # direction where injection can break it at new hanging nodes whose
    # parents changed.
    pts = new_mesh.node_coords()[new_mesh.indep_nodes]
    return new_mesh.expand(old_mesh.interpolate_at(u_full_old, pts))
