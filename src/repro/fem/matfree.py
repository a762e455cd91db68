"""Element apply kernels that assemble no global matrix (Section VII).

MANGLL's kernel study contrasts *matrix-based* element application (one
precomputed dense matrix per operator, large GEMMs over all elements)
with *tensor-product* (sum-factorized) application that exploits the
Kronecker structure of the reference element; on Ranger the dense side
won below p = 4.  This module runs the MINRES saddle applies and the
SUPG rate evaluations as batched dense element kernels over every
element at once, so a viscosity update between Picard passes only
rebinds per-element scalars instead of re-running sparse assembly.

- **The Stokes saddle apply is the matrix-based side at p = 1.**  Every
  element of an extracted mesh is the largest element box scaled by
  ``s_e``, so the strain stiffness scales as ``eta s``, the divergence as
  ``s^2`` and the Dohrmann-Bochev stabilization as ``s^3 / eta``.  One
  dense ``32 x 32`` element matrix ``[[K, B^T], [B, -C]]`` at unit
  viscosity on the reference box therefore serves every element, scaled
  on both sides by the per-element diagonal
  ``diag(sqrt(eta s) I_24, s^{3/2} / sqrt(eta) I_8)``: one
  ``(32, 32) @ (32, ne)`` GEMM per apply.
- **The SUPG rate and the scalar mass are sum-factorized.**  Every
  trilinear element matrix factors as ``kron(Az, Ay, Ax)`` of two-node
  1-D matrices and the 2-point Gauss rule on each axis integrates every
  Q1 integrand exactly, so forward-evaluating values and reference
  gradients at the Gauss points (GEMMs built from
  :func:`repro.mangll.tensor.kron3` factors), combining pointwise with
  per-element coefficients and contracting back is exact quadrature.

All element-space data is *element-minor* — ``(channels, ne)`` — so
coefficient multiplies are long contiguous runs and the GEMMs are
``(small, small) @ (small, ne)``.  Hanging-node constraints and
Dirichlet masking are folded into a single cached CSR *gather* operator
per mesh (rows of ``Z``/``Z3`` indexed by the element connectivity,
Dirichlet columns zeroed) and its transpose for the scatter — two thin
sparse matvecs per apply instead of ``Z^T A Z`` triple products.  All
mesh-derived state lives in :func:`repro.mesh.opcache.operator_cache`,
so it participates in the same structural invalidation and
``REPRO_SANITIZE=1`` freeze/verify guards as the assembly scatters.

The assembled CSR blocks remain available to the parity tests;
parity between the assembled and the element-kernel apply is pinned to
1e-14 (saddle) and 1e-12 (transport) by the tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..mangll.tensor import kron3
from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from .assembly import Z3, vector_dofs
from .hexops import ElementOps

__all__ = [
    "MatFreeStokesOperator",
    "MatFreeAdvectionOperator",
    "apply_scalar_mass",
    "lumped_scalar_mass",
    "batched_lumped_scalar_mass",
    "velocity_gather",
    "scalar_gather",
    "gauss_matrices",
    "saddle_apply_flops",
    "saddle_apply_bytes",
    "advection_apply_flops",
    "csr_apply_flops",
    "csr_apply_bytes",
]

_OPS = ElementOps()

# -- 2-point Gauss quadrature on the unit reference cell ------------------------
#
# Points g0, g1 on [0, 1]; E1 evaluates the two 1-D hat functions at the
# points, D1 their (constant) reference derivatives.  The 3-D evaluation
# matrices are Kronecker products matching hexops' vertex ordering
# (x fastest).  Exactness: (h/2) E1^T E1 = M1, (1/2h) D1^T D1 = K1,
# (1/2) E1^T D1 = G1 — so these kernels reproduce the assembled
# operators to rounding.

_S3 = 1.0 / np.sqrt(3.0)
_GPTS = np.array([(1.0 - _S3) / 2.0, (1.0 + _S3) / 2.0], dtype=np.float64)
_E1 = np.column_stack([1.0 - _GPTS, _GPTS])  # (2 pts, 2 nodes)
_D1 = np.array([[-1.0, 1.0], [-1.0, 1.0]], dtype=np.float64)  # d/dr of the two hats

#: (8, 8) value-evaluation matrix: (E8 @ u_e)[q] = u(x_q).
E8 = kron3(_E1, _E1, _E1)
#: (3, 8, 8) reference-gradient evaluation, axis order (x, y, z).
G8 = np.stack([kron3(_E1, _E1, _D1), kron3(_E1, _D1, _E1), kron3(_D1, _E1, _E1)])

# fused factors of the scalar kernels: one GEMM produces/consumes the
# value and all three reference derivatives of all elements at once.
# Element-space arrays are ``(channels, ne)``, so the GEMMs are
# ``(small, small) @ (small, ne)``.
_BWD_GRAD = np.concatenate([G8[0], G8[1], G8[2]], axis=0)  # (24, 8)
_FWD_SCAL_T = np.concatenate([E8, G8[0], G8[1], G8[2]], axis=0)  # (32, 8)
_BWD_SCAL_T = np.ascontiguousarray(_FWD_SCAL_T.T)  # (8, 32)


def gauss_matrices() -> tuple[np.ndarray, np.ndarray]:
    """The (E8, G8) Gauss-point evaluation matrices (for tests/bench)."""
    return E8, G8


# -- cached constraint-folded gathers -------------------------------------------


class _Gather:
    """CSR gather (independent dofs -> element-local values) and its
    transpose scatter, with hanging-node constraints — and optionally a
    Dirichlet column mask — folded in."""

    def __init__(self, G: sp.csr_matrix, mask: np.ndarray | None):
        G.sort_indices()
        GT = G.T.tocsr()
        GT.sort_indices()
        self.G = G
        self.GT = GT
        self.mask = mask
        #: 1 on Dirichlet-constrained dofs (identity rows of the apply)
        self.imask = None if mask is None else 1.0 - mask


def velocity_gather(mesh: Mesh, bc_key, bc_dofs: np.ndarray) -> _Gather:
    """Element gather for component-blocked velocity in element-minor
    layout: row ``(8 a + i) ne + e`` of ``G`` is the ``Z3`` row of
    component ``a`` at vertex ``i`` of element ``e``, with constrained
    columns zeroed (cached per mesh/BC), so ``G @ u`` reshapes to
    ``(3, 8, ne)``."""

    def build():
        z3 = Z3(mesh)
        vd = vector_dofs(mesh)
        ne = mesh.n_elements
        rows = vd.reshape(ne, 3, 8).transpose(1, 2, 0).ravel()
        mask = np.ones(3 * mesh.n_independent, dtype=np.float64)
        mask[bc_dofs] = 0.0
        G = sp.csr_matrix(z3[rows] @ sp.diags(mask))
        return _Gather(G, mask)

    return operator_cache(mesh).get(("mf_gather_u", bc_key), build)


def scalar_gather(mesh: Mesh) -> _Gather:
    """Element gather for scalar fields in element-minor layout: row
    ``i ne + e`` of ``G`` is the ``Z`` row of vertex ``i`` of element
    ``e`` (cached per mesh), so ``G @ x`` reshapes to ``(8, ne)``."""

    def build():
        G = sp.csr_matrix(mesh.Z[mesh.element_nodes.T.ravel()])
        return _Gather(G, None)

    return operator_cache(mesh).get("mf_gather_p", build)


def _geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, ih, vol): Gauss weight ``vol/8``, inverse edge lengths, volume."""

    def build():
        sizes = mesh.element_sizes()
        vol = sizes.prod(axis=1)
        return (vol / 8.0, 1.0 / sizes, vol)

    return operator_cache(mesh).get("mf_geometry", build)


# -- Stokes saddle apply --------------------------------------------------------


def _saddle_element(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """``(Me, s)``: the ``(32, 32)`` element matrix ``[[K, B^T], [B, -C]]``
    at unit viscosity on the largest element box ``h_ref`` (local dofs:
    24 component-blocked velocities, then 8 pressures), and each
    element's scale ``s_e`` (its box is ``s_e h_ref``).  Raises
    ``ValueError`` unless every element is such a scaled copy."""

    def build():
        sizes = mesh.element_sizes()
        h_ref = sizes.max(axis=0)
        s = sizes[:, 0] / h_ref[0]
        if not np.allclose(sizes, s[:, None] * h_ref, rtol=1e-12, atol=0.0):
            raise ValueError(
                "the saddle element matrix needs every element to be a "
                "scaled copy of one box"
            )
        h, one = h_ref[None, :], np.ones(1)
        B = -_OPS.divergence(h)[0]
        Me = np.block(
            [
                [_OPS.strain_stiffness(h, one)[0], B.T],
                [B, -_OPS.pressure_stabilization(h, one)[0]],
            ]
        )
        return Me, s

    return operator_cache(mesh).get("mf_saddle_element", build)


class MatFreeStokesOperator:
    """Element-matrix apply of the constrained saddle operator
    ``[[A, B^T], [B, -C]]`` (strain stiffness, divergence,
    Dohrmann-Bochev stabilization) in one GEMM over all elements.

    Element ``e``'s matrix is ``D_e Me D_e`` with
    ``D_e = diag(sqrt(eta_e s_e) I_24, s_e^{3/2} / sqrt(eta_e) I_8)``
    (see :func:`_saddle_element`), so the apply gathers, scales, runs
    ``Me @ X`` and scales back.  Equivalent to the assembled path's
    ``apply_dirichlet(Z3^T A Z3) x + ...`` because the gather applies the
    Dirichlet mask ``D`` on input, the scatter applies it on output
    (``D Z3^T A_elem Z3 D``), and the identity rows are restored
    explicitly.  Mesh-derived pieces are cached; a Picard viscosity
    update recomputes the two scale vectors, O(ne).
    """

    def __init__(self, mesh: Mesh, viscosity: np.ndarray, bc_key, bc_dofs: np.ndarray):
        self.mesh = mesh
        self.n_u = 3 * mesh.n_independent
        self.n_p = mesh.n_independent
        self.gu = velocity_gather(mesh, bc_key, bc_dofs)
        self.gp = scalar_gather(mesh)
        self.Me, s = _saddle_element(mesh)
        # Batched mode: a (nb, ne) viscosity advances nb scenarios per
        # GEMM by merging the batch axis into the element axis (flat
        # order e * nb + b, which is exactly how a (24 ne, nb) gather
        # result reshapes to (24, ne * nb)); sizes are shared, so the
        # element scales are repeated scenario-minor.
        eta0 = np.asarray(viscosity, dtype=np.float64)
        self.nb = 1 if eta0.ndim == 1 else int(eta0.shape[0])
        self.s = np.repeat(s, self.nb) if self.nb > 1 else s
        self.update_viscosity(viscosity)
        # per-apply workspaces, reused across MINRES iterations (a fresh
        # array per apply may pay first-touch page faults every time)
        m = mesh.n_elements * self.nb
        self._X = np.empty((32, m), dtype=np.float64)
        self._Y = np.empty((32, m), dtype=np.float64)

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Rebind the two per-element scale vectors (no mesh-derived
        rebuild) — this is all a Picard viscosity update costs.  Raises
        ``ValueError`` naming the first viscosity that is not finite and
        positive."""
        eta = np.asarray(viscosity, dtype=np.float64)
        if eta.ndim == 2:
            if eta.shape[0] != self.nb:
                raise ValueError(
                    f"batched viscosity has {eta.shape[0]} scenarios, "
                    f"operator was built for {self.nb}"
                )
        elif self.nb > 1:
            raise ValueError("batched operator needs a (nb, ne) viscosity")
        bad = ~(np.isfinite(eta) & (eta > 0))
        if bad.any():
            idx = np.argwhere(bad)[0]
            where = f"element {idx[-1]}"
            if eta.ndim == 2:
                where = f"scenario column {idx[0]}, {where}"
            value = float(eta[tuple(idx)])
            raise ValueError(
                f"viscosity must be finite and positive: {where} has {value}"
            )
        if eta.ndim == 2:
            # element-major, scenario-minor flat order e * nb + b
            eta = np.ascontiguousarray(eta.T).ravel()
        self.du = np.sqrt(eta * self.s)  # velocity rows: eta s
        self.dp = self.s**1.5 / np.sqrt(eta)  # pressure rows: s^3 / eta

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Full saddle matvec ``[[A, B^T], [B, -C]] x``.

        In batched mode ``x`` is ``(n_dof, nb)`` — one scenario per
        column — and the result has the same shape; the GEMM then
        advances all ``nb`` scenarios at once on the merged
        element-batch axis.
        """
        obs.counter("matfree_applies")
        m = self.mesh.n_elements * self.nb
        u, p = x[: self.n_u], x[self.n_u :]
        X, Y = self._X, self._Y
        # gather to element space (constraints + Dirichlet mask folded in)
        np.multiply((self.gu.G @ u).reshape(24, m), self.du, out=X[:24])
        np.multiply((self.gp.G @ p).reshape(8, m), self.dp, out=X[24:])
        np.matmul(self.Me, X, out=Y)
        Y[:24] *= self.du
        Y[24:] *= self.dp
        # (32, ne * nb) row blocks -> (rows ne, nb) are free reshapes
        # (same strides); a width-1 batch stays two-dimensional
        shape = (-1,) if x.ndim == 1 else (-1, self.nb)
        imask = self.gu.imask if x.ndim == 1 else self.gu.imask[:, None]
        out = np.empty_like(x)
        out[self.n_u :] = self.gp.GT @ Y[24:].reshape(shape)
        out_u = out[: self.n_u]
        out_u[:] = self.gu.GT @ Y[:24].reshape(shape)
        out_u += imask * u  # identity rows of apply_dirichlet
        return out

    def apply_divergence(self, u: np.ndarray) -> np.ndarray:
        """``B u`` alone (for divergence residual norms)."""
        if self.nb != 1:
            raise ValueError("apply_divergence is serial-only; slice one scenario")
        Ue = (self.gu.G @ u).reshape(24, self.mesh.n_elements)
        return self.gp.GT @ ((self.Me[24:, :24] @ Ue) * self.s**2).ravel()


# -- scalar mass / lumped mass --------------------------------------------------


def apply_scalar_mass(
    mesh: Mesh,
    x: np.ndarray,
    coeff: np.ndarray | float = 1.0,
    supg_vel: np.ndarray | None = None,
    supg_tau: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix-free ``(Z^T M(coeff) Z) x`` for the scalar (optionally
    SUPG-weighted) mass: ``int (N_i + tau a . grad N_i) c N_j``.

    With ``supg_vel``/``supg_tau`` this applies the streamline-weighted
    mass (the matfree analogue of ``ElementOps.supg_mass``); without, the
    plain Galerkin mass.
    """
    gp = scalar_gather(mesh)
    w, ih, _ = _geometry(mesh)
    ne = mesh.n_elements
    TeT = (gp.G @ x).reshape(8, ne)
    TqT = E8 @ TeT
    wc = w * np.asarray(coeff, dtype=np.float64)
    out_e = E8.T @ (wc[None, :] * TqT)
    if supg_vel is not None:
        tau = np.asarray(supg_tau, dtype=np.float64)
        chan = (
            (wc * tau)[None, None, :]
            * np.ascontiguousarray(np.asarray(supg_vel, dtype=np.float64).T)[:, None, :]
            * TqT[None, :, :]
        )
        chan *= np.ascontiguousarray(ih.T)[:, None, :]
        out_e += _BWD_GRAD.T @ chan.reshape(24, ne)
    return gp.GT @ out_e.ravel()


def lumped_scalar_mass(mesh: Mesh, coeff: np.ndarray | float = 1.0) -> np.ndarray:
    """Row sums of the constrained scalar mass, computed matrix-free as
    ``(Z^T M Z) 1`` — the tensor-path Schur diagonal ``Stilde``."""
    d = apply_scalar_mass(mesh, np.ones(mesh.n_independent, dtype=np.float64), coeff)
    if np.any(d <= 0):
        raise AssertionError("non-positive lumped mass entry")
    return d


def batched_lumped_scalar_mass(mesh: Mesh, coeff: np.ndarray) -> np.ndarray:
    """Per-scenario Schur diagonals in one sweep: ``coeff`` is
    ``(nb, ne)`` and the result is ``(n, nb)``, column ``b`` equal to
    ``lumped_scalar_mass(mesh, coeff[b])`` up to GEMM reassociation.

    This is the batched-channel-scaling form used by the fleet engine:
    the gather/backward GEMMs run once on the merged element-batch axis
    instead of ``nb`` separate sparse passes.
    """
    coeff = np.asarray(coeff, dtype=np.float64)
    if coeff.ndim != 2:
        raise ValueError("coeff must be (nb, ne)")
    nb, ne = coeff.shape
    gp = scalar_gather(mesh)
    w, _, _ = _geometry(mesh)
    ones = np.ones((mesh.n_independent, nb), dtype=np.float64)
    TqT = E8 @ (gp.G @ ones).reshape(8, ne * nb)
    wc = (w[:, None] * coeff.T).reshape(-1)  # e * nb + b flat order
    out_e = E8.T @ (wc[None, :] * TqT)
    d = gp.GT @ out_e.reshape(8 * ne, nb)
    if np.any(d <= 0):
        raise AssertionError("non-positive lumped mass entry")
    return d


# -- SUPG advection-diffusion rate operator -------------------------------------


class MatFreeAdvectionOperator:
    """Sum-factorized apply of the SUPG transport operator
    ``kappa K + N(a) + tau G(a)`` (stiffness + convection + streamline
    diffusion) used by :meth:`repro.fem.advection.AdvectionDiffusion.rate`.

    One fused forward GEMM produces the value and all three reference
    gradients at the Gauss points; one fused backward GEMM consumes the
    mass channel and the three flux channels.
    """

    def __init__(self, mesh: Mesh, kappa, vel: np.ndarray, tau: np.ndarray):
        self.mesh = mesh
        ne = mesh.n_elements
        self.gp = scalar_gather(mesh)
        w, ih, _ = _geometry(mesh)
        vel = np.asarray(vel, dtype=np.float64)
        # Batched mode mirrors MatFreeStokesOperator: vel (nb, ne, 3),
        # tau (nb, ne), kappa scalar or (nb,), merged flat order e*nb+b.
        self.nb = 1 if vel.ndim == 2 else int(vel.shape[0])
        if vel.ndim == 2:  # serial layout (a width-1 batch stays batched)
            self.velT = np.ascontiguousarray(vel.T)
            self.w = w
            self.wk = w * float(kappa)  # diffusive flux prefactor
            wtau = w * np.asarray(tau, dtype=np.float64)
        else:
            ih = np.repeat(ih, self.nb, axis=0)
            self.velT = np.ascontiguousarray(vel.transpose(2, 1, 0)).reshape(3, -1)
            kb = np.broadcast_to(
                np.asarray(kappa, dtype=np.float64), (self.nb,)
            )
            self.w = np.repeat(w, self.nb)
            self.wk = (w[:, None] * kb[None, :]).ravel()
            wtau = (w[:, None] * np.asarray(tau, dtype=np.float64).T).ravel()
        self.ihT = np.ascontiguousarray(ih.T)  # (3, m)
        self.wtauvelT = wtau[None, :] * self.velT
        m = ne * self.nb
        self._f = np.empty((32, m), dtype=np.float64)
        self._c = np.empty((32, m), dtype=np.float64)

    def apply(self, T: np.ndarray) -> np.ndarray:
        """``A T`` for the assembled-equivalent SUPG operator.

        Batched mode: ``T`` is ``(n, nb)``, one scenario per column, and
        the result matches that shape.
        """
        ne = self.mesh.n_elements
        TeT = (self.gp.G @ T).reshape(8, ne * self.nb)
        f = np.matmul(_FWD_SCAL_T, TeT, out=self._f)
        g = f[8:].reshape(3, 8, -1)
        g *= self.ihT[:, None, :]  # physical gradients
        adv = np.einsum("be,bqe->qe", self.velT, g)  # a . grad T
        c = self._c
        # mass channel: w N_i (a . grad T); flux channels: test-gradient
        # contractions of w (kappa grad T + tau (a . grad T) a), with the
        # test-function metric 1/h folded in before the backward GEMM
        np.multiply(adv, self.w[None, :], out=c[:8])
        cg = c[8:].reshape(3, 8, -1)
        np.multiply(g, self.wk[None, None, :], out=cg)
        cg += self.wtauvelT[:, None, :] * adv[None, :, :]
        cg *= self.ihT[:, None, :]
        out_e = _BWD_SCAL_T @ c
        if T.ndim == 1:
            return self.gp.GT @ out_e.ravel()
        return self.gp.GT @ out_e.reshape(8 * self.mesh.n_elements, self.nb)


# -- flop / byte accounting (prices the kernel choice in MachineModel) ----------


def saddle_apply_flops(n_elements: int) -> int:
    """Flops per saddle apply: the ``(32, 32) @ (32, ne)`` element GEMM
    (a multiply-add per matrix entry) plus the two-sided diagonal
    scaling, priced the same way (a multiply-add per entry on each
    side)."""
    return (2 * 32 * 32 + 4 * 32) * n_elements


def saddle_apply_bytes(n_elements: int, gather_nnz: int) -> int:
    """Bytes streamed per saddle apply: gather/scatter CSR traffic
    (8-byte value + 8-byte column index per entry, both directions) plus
    one read + one write of each ``(32, ne)`` workspace ``X`` and ``Y``."""
    return 2 * 16 * gather_nnz + 8 * n_elements * 2 * (32 + 32)


def advection_apply_flops(n_elements: int) -> int:
    """Flops per tensor-variant SUPG rate apply (fused 8x32 GEMMs plus
    the pointwise flux combination)."""
    per_elem = 2 * 2 * 8 * 32 + 8 * (3 * 2 + 3 * 4 + 3)
    return per_elem * n_elements


def csr_apply_flops(nnz: int) -> int:
    """Flops per assembled-CSR apply (one multiply-add per stored entry)."""
    return 2 * nnz


def csr_apply_bytes(nnz: int, n_rows: int) -> int:
    """Bytes streamed per assembled-CSR apply: 8-byte value + 8-byte
    column index per entry, plus the gathered input and written output."""
    return 16 * nnz + 8 * 2 * n_rows
