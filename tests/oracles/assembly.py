"""Matrix-based lumping: assemble the constrained mass, then sum rows.

``repro.fem.assembly.lumped_mass`` and ``ParAdvectionDiffusion`` now apply
``Z^T`` to the scattered element row sums instead (rows of ``Z`` sum to
one); these are the assembled forms they replaced.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem import assemble_scalar


def lumped_mass_assembled(mesh, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of the assembled ``Z^T M Z``."""
    return np.asarray(assemble_scalar(mesh, elem_mass).sum(axis=1)).ravel()


def lumped_owned_assembled(pm, elem_mass: np.ndarray) -> np.ndarray:
    """Row sums of ``Z^T M Z`` assembled from a rank's owned elements on
    its union mesh (before the shared-dof sum-exchange)."""
    mesh = pm.mesh
    en = mesh.element_nodes[pm.owned_elements]
    rows = np.repeat(en, 8, axis=1).ravel()
    cols = np.tile(en, (1, 8)).ravel()
    M = sp.csr_matrix((elem_mass.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2)
    return np.asarray((mesh.Z.T @ M @ mesh.Z).sum(axis=1)).ravel()
