"""Error indicators and refinement criteria for RHEA.

The production criterion is a scaled gradient indicator on temperature
(resolution follows thermal fronts, plumes and boundary layers), optionally
combined with a viscosity-variation term so that yielding zones — where
viscosity collapses over a few kilometers — are also refined (Section VI:
"the finest grid covers the region of highest stress").
"""

from __future__ import annotations

import numpy as np

from ..mesh import Mesh

__all__ = [
    "gradient_indicator",
    "viscosity_jump_indicator",
    "combined_indicator",
    "element_gradient",
]


def element_gradient(mesh: Mesh, f_full: np.ndarray) -> np.ndarray:
    """(ne, 3) gradient of a scalar nodal field at element centers."""
    fc = f_full[mesh.element_nodes]  # (ne, 8)
    sizes = mesh.element_sizes()
    parity = np.array([[(i >> a) & 1 for a in range(3)] for i in range(8)])
    sgn = 2.0 * parity - 1.0
    out = np.empty((mesh.n_elements, 3))
    for b in range(3):
        out[:, b] = fc @ (sgn[:, b] / 4.0) / sizes[:, b]
    return out


def gradient_indicator(mesh: Mesh, T_full: np.ndarray) -> np.ndarray:
    """``eta_e = h_e * |grad T|_e`` — the interpolation-error-style
    indicator that concentrates resolution at thermal fronts."""
    g = element_gradient(mesh, T_full)
    h = mesh.element_sizes().min(axis=1)
    return h * np.linalg.norm(g, axis=1)


def viscosity_jump_indicator(mesh: Mesh, eta_elem: np.ndarray) -> np.ndarray:
    """``h_e * |grad log10(eta)|`` approximated from element values
    interpolated to nodes; refines collapsing-viscosity (yielding) zones."""
    log_eta = np.log10(np.maximum(eta_elem, 1e-300))
    # scatter element values to nodes (average), then take element gradients
    node_sum = np.zeros(mesh.n_nodes)
    node_cnt = np.zeros(mesh.n_nodes)
    np.add.at(node_sum, mesh.element_nodes.ravel(), np.repeat(log_eta, 8))
    np.add.at(node_cnt, mesh.element_nodes.ravel(), 1.0)
    node_eta = node_sum / np.maximum(node_cnt, 1.0)
    g = element_gradient(mesh, node_eta)
    h = mesh.element_sizes().min(axis=1)
    return h * np.linalg.norm(g, axis=1)


def combined_indicator(
    mesh: Mesh,
    T_full: np.ndarray,
    eta_elem: np.ndarray | None = None,
    viscosity_weight: float = 0.5,
) -> np.ndarray:
    """Temperature-gradient indicator, optionally blended with the
    viscosity-jump term (both normalized to unit maximum first)."""
    ind = gradient_indicator(mesh, T_full)
    mx = ind.max()
    if mx > 0:
        ind = ind / mx
    if eta_elem is not None and viscosity_weight > 0:
        v = viscosity_jump_indicator(mesh, eta_elem)
        vmx = v.max()
        if vmx > 0:
            ind = ind + viscosity_weight * (v / vmx)
    return ind
