"""Element matrices for trilinear elements on axis-aligned boxes.

Every element in an octree mesh (with a diagonally scaled domain) is an
axis-aligned box ``hx x hy x hz``, so all 8x8 trilinear element matrices
factor exactly into Kronecker products of three 1-D two-node matrices —
no quadrature loop is needed and matrices for all elements are produced in
one vectorized sweep (the per-element sizes enter only through scalar
prefactors).

1-D building blocks on an interval of length ``h`` (nodes at the ends):

- mass        ``M(h)   = h/6 * [[2, 1], [1, 2]]``
- stiffness   ``K(h)   = 1/h * [[1, -1], [-1, 1]]``
- convection  ``G      = [[-1/2, 1/2], [-1/2, 1/2]]``   (h-independent),
  ``G[i, j] = integral N_i dN_j/dx``.

Vertex ordering is x fastest (vertex ``i`` at ``((i&1), (i>>1)&1,
(i>>2)&1)``), matching mesh extraction, so 3-D operators are
``kron(Az, Ay, Ax)``.

The main entry point :func:`ElementOps.build` precomputes the nine
h-independent 8x8 "shape" matrices; per-element matrices are then linear
combinations with coefficients that depend on ``(hx, hy, hz)`` and the
element's material data — this is what makes assembly of million-element
meshes feasible in NumPy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ElementOps", "M1_UNIT", "K1_UNIT", "G1"]

#: Unit-interval 1-D mass matrix (multiply by h).
M1_UNIT = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float64) / 6.0
#: Unit-interval 1-D stiffness matrix (divide by h).
K1_UNIT = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float64)
#: 1-D convection matrix integral N_i N_j' (h-independent).
G1 = np.array([[-0.5, 0.5], [-0.5, 0.5]], dtype=np.float64)


def _kron3(az: np.ndarray, ay: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """kron(Az, Ay, Ax) -> 8x8, vertex index i = ix + 2*iy + 4*iz."""
    return np.kron(az, np.kron(ay, ax))


class ElementOps:
    """Precomputed shape matrices for axis-aligned trilinear hexahedra.

    All returned element matrices have shape ``(n_elements, 8, 8)``.
    ``sizes`` is the ``(n_elements, 3)`` array of physical edge lengths.
    """

    def __init__(self):
        M, K, G = M1_UNIT, K1_UNIT, G1
        # mass:     hx*hy*hz * MMM
        self.MMM = _kron3(M, M, M)
        # stiffness parts: Sxx scales by hy*hz/hx, etc.
        self.Sxx = _kron3(M, M, K)
        self.Syy = _kron3(M, K, M)
        self.Szz = _kron3(K, M, M)
        # convection parts: Dx scales by hy*hz (G is h-free), etc.
        self.Dx = _kron3(M, M, G)
        self.Dy = _kron3(M, G, M)
        self.Dz = _kron3(G, M, M)
        # mixed derivative parts for SUPG: integral dN_i/da dN_j/db.
        # d/dx couples G^T in x; e.g. Sxy = integral dx(N_i) dy(N_j)
        # = (int Nx_i' Nx_j dx)(int Ny_i Ny_j' dy)(int Nz_i Nz_j dz)
        #   -> scale hz
        self.Sxy = _kron3(M, G, G.T)
        self.Sxz = _kron3(G, M, G.T)
        self.Syz = _kron3(G, G.T, M)
        #: (9, 64) rows Sxx, Syy, Szz, Dx, Dy, Dz and the symmetrized mixed parts
        mixed = [S + S.T for S in (self.Sxy, self.Sxz, self.Syz)]
        self.supg_basis = np.stack(
            [self.Sxx, self.Syy, self.Szz, self.Dx, self.Dy, self.Dz, *mixed]
        ).reshape(9, 64)
        #: (3, 8) column sums of Dx, Dy, Dz: ``int d_a N_i`` on the unit cube
        self.grad_integrals = np.stack(
            [D.sum(axis=0) for D in (self.Dx, self.Dy, self.Dz)]
        )

    # -- scalar operators ------------------------------------------------------

    def mass(self, sizes: np.ndarray, coeff: np.ndarray | float = 1.0) -> np.ndarray:
        """Element mass matrices, optionally scaled by a per-element
        coefficient (used e.g. for the 1/viscosity-weighted pressure
        mass of the Schur complement approximation)."""
        vol = sizes.prod(axis=1) * np.asarray(coeff, dtype=np.float64)
        return vol[:, None, None] * self.MMM[None, :, :]

    def stiffness(self, sizes: np.ndarray, coeff: np.ndarray | float = 1.0) -> np.ndarray:
        """Variable-coefficient Poisson element matrices
        ``coeff * int grad(N_i) . grad(N_j)``."""
        hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
        c = np.broadcast_to(np.asarray(coeff, dtype=np.float64), hx.shape)
        return (
            (c * hy * hz / hx)[:, None, None] * self.Sxx[None]
            + (c * hx * hz / hy)[:, None, None] * self.Syy[None]
            + (c * hx * hy / hz)[:, None, None] * self.Szz[None]
        )

    def convection(self, sizes: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """Element advection matrices ``int N_i (a . grad N_j)`` with a
        constant per-element velocity ``vel`` of shape (n, 3)."""
        hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
        ax, ay, az = vel[:, 0], vel[:, 1], vel[:, 2]
        return (
            (ax * hy * hz)[:, None, None] * self.Dx[None]
            + (ay * hx * hz)[:, None, None] * self.Dy[None]
            + (az * hx * hy)[:, None, None] * self.Dz[None]
        )

    def supg_operator(
        self, sizes: np.ndarray, vel: np.ndarray, kappa, tau: np.ndarray
    ) -> np.ndarray:
        """SUPG element matrices ``kappa K + N(a) + tau G(a)``: diffusion,
        convection ``int N_i (a . grad N_j)`` and the streamline term
        ``int (a.grad N_i)(a.grad N_j)``, as one ``(n, 9) @ (9, 64)``
        product over the nine shape matrices of :attr:`supg_basis`."""
        hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
        ax, ay, az = vel[:, 0], vel[:, 1], vel[:, 2]
        coef = np.stack(
            [
                (kappa + tau * ax * ax) * hy * hz / hx,
                (kappa + tau * ay * ay) * hx * hz / hy,
                (kappa + tau * az * az) * hx * hy / hz,
                ax * hy * hz,
                ay * hx * hz,
                az * hx * hy,
                # mixed terms appear twice (ab and ba): S_ab^T = S_ba shape-wise
                tau * ax * ay * hz,
                tau * ax * az * hy,
                tau * ay * az * hx,
            ],
            axis=1,
        )
        return (coef @ self.supg_basis).reshape(-1, 8, 8)

    def streamline_load(self, sizes: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """``int a . grad N_i``, shape (n, 8): the SUPG part of the weight
        a uniform source is tested with (row sums of :meth:`supg_mass`)."""
        face_areas = sizes.prod(axis=1, keepdims=True) / sizes
        return (vel * face_areas) @ self.grad_integrals

    def supg_mass(self, sizes: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """``int (a.grad N_i) N_j`` — the SUPG-weighted mass term
        (transpose of :meth:`convection`)."""
        return np.swapaxes(self.convection(sizes, vel), 1, 2)

    # -- Stokes blocks ------------------------------------------------------------

    def strain_stiffness(self, sizes: np.ndarray, viscosity: np.ndarray) -> np.ndarray:
        """(n, 24, 24) viscous element matrices for the strain-rate form
        ``int eta (grad u + grad u^T) : grad v``.

        Velocity dofs are component-blocked: local dof ``8*a + i`` is
        component ``a`` at vertex ``i``.  Block (a, b) equals
        ``eta * (delta_ab * sum_c S_cc + S_ba)``.
        """
        hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
        eta = np.asarray(viscosity, dtype=np.float64)
        n = len(sizes)
        # per-element pure and mixed gradient matrices
        S = np.empty((3, 3, n, 8, 8), dtype=np.float64)
        S[0, 0] = (hy * hz / hx)[:, None, None] * self.Sxx[None]
        S[1, 1] = (hx * hz / hy)[:, None, None] * self.Syy[None]
        S[2, 2] = (hx * hy / hz)[:, None, None] * self.Szz[None]
        S[0, 1] = hz[:, None, None] * self.Sxy[None]  # int dx(N_i) dy(N_j)
        S[1, 0] = np.swapaxes(S[0, 1], 1, 2)
        S[0, 2] = hy[:, None, None] * self.Sxz[None]
        S[2, 0] = np.swapaxes(S[0, 2], 1, 2)
        S[1, 2] = hx[:, None, None] * self.Syz[None]
        S[2, 1] = np.swapaxes(S[1, 2], 1, 2)
        lap = S[0, 0] + S[1, 1] + S[2, 2]
        out = np.zeros((n, 24, 24), dtype=np.float64)
        for a in range(3):
            for b in range(3):
                blk = S[b, a].copy()
                if a == b:
                    blk += lap
                out[:, 8 * a : 8 * a + 8, 8 * b : 8 * b + 8] = (
                    eta[:, None, None] * blk
                )
        return out

    def divergence(self, sizes: np.ndarray) -> np.ndarray:
        """(n, 8, 24) element matrices ``B_e[i, 8a+j] = int N_i d_a N_j``
        (pressure row block of the Stokes saddle system)."""
        hx, hy, hz = sizes[:, 0], sizes[:, 1], sizes[:, 2]
        n = len(sizes)
        out = np.zeros((n, 8, 24), dtype=np.float64)
        out[:, :, 0:8] = (hy * hz)[:, None, None] * self.Dx[None]
        out[:, :, 8:16] = (hx * hz)[:, None, None] * self.Dy[None]
        out[:, :, 16:24] = (hx * hy)[:, None, None] * self.Dz[None]
        return out

    def pressure_stabilization(
        self, sizes: np.ndarray, viscosity: np.ndarray
    ) -> np.ndarray:
        """Dohrmann-Bochev polynomial pressure projection stabilization:
        ``C_e = (1/eta_e) (M_e - m_e m_e^T / V_e)`` where ``m_e`` are the
        element shape integrals and ``V_e`` the volume.  Annihilates
        element-wise constant pressures; spectrally equivalent scaling by
        the inverse viscosity follows Section III."""
        vol = sizes.prod(axis=1)
        Me = vol[:, None, None] * self.MMM[None]
        m = Me.sum(axis=2)  # int N_i = row sums
        outer = m[:, :, None] * m[:, None, :] / vol[:, None, None]
        eta = np.asarray(viscosity, dtype=np.float64)
        return (Me - outer) / eta[:, None, None]
