"""Assembly through node numbering, and matrix-based lumping.

``ParAdvectionDiffusion._assemble_owned`` scatters elements without a
hanging corner straight into dof numbering; ``assemble_owned_nodal`` is
the node-numbered scatter and ``Z^T A Z`` of every owned element that it
replaced.  ``repro.fem.assembly.lumped_mass`` and ``ParAdvectionDiffusion``
apply ``Z^T`` to the scattered element row sums (rows of ``Z`` sum to
one); the ``lumped_*_assembled`` functions assemble the constrained mass
and sum its rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem import assemble_scalar


def lumped_mass_assembled(mesh, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of the assembled ``Z^T M Z``."""
    return np.asarray(assemble_scalar(mesh, elem_mass).sum(axis=1)).ravel()


def assemble_owned_nodal(pm, elem_mats: np.ndarray) -> sp.csr_matrix:
    """``Z^T A Z`` with ``A`` scattered from a rank's owned elements in the
    node numbering of its union mesh."""
    mesh = pm.mesh
    en = mesh.element_nodes[pm.owned_elements]
    rows = np.repeat(en, 8, axis=1).ravel()
    cols = np.tile(en, (1, 8)).ravel()
    A = sp.csr_matrix((elem_mats.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2)
    return sp.csr_matrix(mesh.Z.T @ A @ mesh.Z)


def lumped_owned_assembled(pm, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of ``Z^T M Z`` assembled from a rank's owned elements on
    its union mesh (before the shared-dof sum-exchange)."""
    return np.asarray(assemble_owned_nodal(pm, elem_mass).sum(axis=1)).ravel()
