"""Matrix-free sum-factorized element apply kernels (Section VII).

MANGLL's kernel study contrasts *matrix-based* element application (one
precomputed dense matrix per operator, large GEMMs over all elements)
with *tensor-product* (sum-factorized) application that exploits the
Kronecker structure of the reference element.  PR 1 amortized operator
*setup*; this module removes the assembled sparse matrix from the
per-iteration hot path entirely: MINRES saddle applies and SUPG rate
evaluations run as batched dense element kernels over every element at
once, so a viscosity update between Picard passes only rebinds
per-element scalar coefficients instead of re-running sparse assembly.

Discretization facts the kernels rely on (see :mod:`repro.fem.hexops`):
every element is an axis-aligned box, all trilinear element matrices
factor as ``kron(Az, Ay, Ax)`` of two-node 1-D matrices, and the 2-point
Gauss rule on each axis integrates every Q1 operator integrand exactly
(per-axis polynomial degree <= 2).  The apply is therefore *bitwise
exact* quadrature, not an approximation: forward-evaluate fields and
reference gradients at the Gauss points of each element (batched GEMMs
built from :func:`repro.mangll.tensor.kron3` factors), combine pointwise
with the per-element coefficients (viscosity, metric scalings ``1/h``,
quadrature weight ``vol/8``), and contract back with the transposed
evaluation matrices.  Two refinements make this fast at Q1: gradient
channels live on *reduced* 4-point grids (a trilinear reference
derivative is constant along its own axis), and all element-space data
is *element-minor* — ``(channels, ne)`` — so coefficient multiplies are
long contiguous runs and the GEMMs are ``(small, small) @ (small, ne)``.

Hanging-node constraints and Dirichlet masking are folded into a single
cached CSR *gather* operator per mesh (rows of ``Z``/``Z3`` indexed by
the element connectivity, Dirichlet columns zeroed) and its transpose
for the scatter — replacing the sparse ``Z^T A Z`` triple products of
the assembled path with two thin sparse matvecs per apply.  All
mesh-derived state lives in :func:`repro.mesh.opcache.operator_cache`,
so it participates in the same structural invalidation and
``REPRO_SANITIZE=1`` freeze/verify guards as the assembly scatters.

The assembled CSR blocks remain the source of truth for AMG setup;
parity between the assembled and the matrix-free apply is pinned to
~1e-12 by the tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..mangll.tensor import kron3
from ..mesh import Mesh
from ..mesh.opcache import operator_cache
from .assembly import Z3, vector_dofs

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

# fused forward/backward factors: one GEMM produces/consumes all three
# reference derivatives of all components of all elements at once
_FWD_GRAD = np.concatenate([G8[0], G8[1], G8[2]], axis=0).T  # (8, 24)
_BWD_GRAD = np.concatenate([G8[0], G8[1], G8[2]], axis=0)  # (24, 8)
# scalar transport fuses the value channel in as well
_FWD_SCAL = np.concatenate([E8, G8[0], G8[1], G8[2]], axis=0).T  # (8, 32)
_BWD_SCAL = np.concatenate([E8, G8[0], G8[1], G8[2]], axis=0)  # (32, 8)

_DIAG3 = np.arange(3)

# Reduced quadrature grids: a trilinear reference derivative along axis b
# is *constant* in the b direction, so G8[b] has pairwise-equal rows and
# the gradient channel (a, b) lives on a 4-point grid (the two transverse
# Gauss axes).  This halves the GEMM flops and the pointwise stress
# traffic.  Row subsets below pick one representative of each duplicated
# pair (q = qx + 2 qy + 4 qz, x fastest); ``_dup_sum(a, X)`` sums the
# rows of a full-grid matrix over axis-``a`` pairs, which is how a
# backward contraction consumes data stored on an ``a``-reduced grid.
_RED_ROWS = (
    np.array([0, 2, 4, 6], dtype=np.intp),
    np.array([0, 1, 4, 5], dtype=np.intp),
    np.array([0, 1, 2, 3], dtype=np.intp),
)
_PAIR_OFFSET = (1, 2, 4)
_GRED = np.stack([G8[b][_RED_ROWS[b]] for b in range(3)])  # (3, 4, 8)
#: fused reduced forward: (3 ne, 8) @ (8, 12) -> all nine grad channels
_FWD_RED = np.concatenate([_GRED[0], _GRED[1], _GRED[2]], axis=0).T


def _dup_sum(a: int, X: np.ndarray) -> np.ndarray:
    """(4, 8) sums of the rows of ``X`` over axis-``a`` quadrature pairs."""
    return X[_RED_ROWS[a]] + X[_RED_ROWS[a] + _PAIR_OFFSET[a]]


#: fused backward for the grad-grad term Sum_b G8[b]^T (c_b g[a, b]):
#: channel (a, b) is b-reduced, so each block is Dup_b^T G8[b] = 2 Gred[b]
_BWD_RED = np.concatenate([_dup_sum(b, G8[b]) for b in range(3)], axis=0)
#: basis-value backward on an a-reduced grid (divergence row of the saddle)
_PSUM = np.stack([_dup_sum(a, E8) for a in range(3)])  # (3, 4, 8)
#: batched correction matrices, one GEMM for the whole coupling block:
#: batch a < 3 is velocity component a, consuming the three
#: transposed-gradient channels g[b, a] (all a-reduced, blocks
#: Dup_a^T G8[b]) plus the full-grid B^T pressure channel (block G8[a]);
#: batch 3 is the pressure row, consuming the three a-reduced diagonal
#: gradient channels (divergence, blocks -Dup_a^T E8) plus the
#: stabilization-mass channel (block -E8)
_CORR = np.stack(
    [
        np.concatenate([_dup_sum(a, G8[0]), _dup_sum(a, G8[1]), _dup_sum(a, G8[2]), G8[a]], axis=0)
        for a in range(3)
    ]
    + [np.concatenate([-_PSUM[0], -_PSUM[1], -_PSUM[2], -E8], axis=0)]
)  # (4, 20, 8)

# Element-minor (transposed) factors.  All element-space arrays are laid
# out channel-major / element-minor — ``(channels, ne)`` — so every
# pointwise coefficient multiply runs over a contiguous length-``ne``
# inner loop instead of ne separate length-4/8 runs (which are dominated
# by per-loop overhead and strided traffic), and the batched GEMMs become
# ``(small, small) @ (small, ne)``.
_FWD_RED_T = np.ascontiguousarray(_FWD_RED.T)  # (12, 8)
_BWD_RED_T = np.ascontiguousarray(_BWD_RED.T)  # (8, 12)
_CORR_T = np.ascontiguousarray(_CORR.transpose(0, 2, 1))  # (4, 8, 20)
_FWD_GRAD_T = np.ascontiguousarray(_FWD_GRAD.T)  # (24, 8)
_FWD_SCAL_T = np.ascontiguousarray(_FWD_SCAL.T)  # (32, 8)
_BWD_SCAL_T = np.ascontiguousarray(_BWD_SCAL.T)  # (8, 32)


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


class MatFreeStokesOperator:
    """Sum-factorized apply of the constrained saddle operator
    ``[[A, B^T], [B, -C]]`` (strain stiffness, divergence,
    Dohrmann-Bochev stabilization) in one element sweep.

    Equivalent to the assembled path's
    ``apply_dirichlet(Z3^T A Z3) x + ...`` because the gather applies the
    Dirichlet mask ``D`` on input, the scatter applies it on output
    (``D Z3^T A_elem Z3 D``), and the identity rows are restored
    explicitly.  Mesh-derived pieces are cached; per-viscosity pieces are
    plain per-element scalar arrays, so a Picard viscosity update costs
    O(ne) instead of a sparse reassembly.
    """

    def __init__(self, mesh: Mesh, viscosity: np.ndarray, bc_key, bc_dofs: np.ndarray):
        self.mesh = mesh
        ne = mesh.n_elements
        self.n_u = 3 * mesh.n_independent
        self.n_p = mesh.n_independent
        self.gu = velocity_gather(mesh, bc_key, bc_dofs)
        self.gp = scalar_gather(mesh)
        w, ih, vol = _geometry(mesh)
        # Batched mode: a (nb, ne) viscosity advances nb scenarios per
        # GEMM by merging the batch axis into the element axis (flat
        # order e * nb + b, which is exactly how a (24 ne, nb) gather
        # result reshapes to (3, 8, ne * nb)).  Geometry is shared, so
        # per-element coefficients are repeated scenario-minor.
        eta0 = np.asarray(viscosity, dtype=np.float64)
        self.nb = 1 if eta0.ndim == 1 else int(eta0.shape[0])
        if self.nb > 1:
            w = np.repeat(w, self.nb)
            ih = np.repeat(ih, self.nb, axis=0)
            vol = np.repeat(vol, self.nb)
        m = ne * self.nb
        self.ih = ih
        self.ihT = np.ascontiguousarray(ih.T)  # (3, m)
        self.w = w
        self.vol = vol
        self.update_viscosity(viscosity)
        # per-apply workspaces (reused across MINRES iterations), all in
        # element-minor layout
        self._g = np.empty((3, 12, m), dtype=np.float64)
        self._t1 = np.empty((3, 12, m), dtype=np.float64)
        self._acc = np.empty((3, 8, m), dtype=np.float64)
        self._pq = np.empty((8, m), dtype=np.float64)
        self._cin = np.empty((4, 20, m), dtype=np.float64)
        self._cout = np.empty((4, 8, m), dtype=np.float64)

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Rebind the per-element coefficients (no mesh-derived rebuild) —
        this is all a Picard viscosity update costs the tensor path.

        The gathered velocity components are pre-scaled by
        ``sih_a = sqrt(w eta) / h_a`` before the forward gradient GEMM, so
        the scaled reference gradients ``gs[a, b] = sih_a d_b u_a`` turn
        every downstream coefficient into a cheap per-element broadcast:
        the grad-grad channel needs ``sih_b^2 / sih_a``, the
        transposed-gradient channels of output component ``a`` need just
        ``sih_a``, and the divergence channels the axis-independent
        ``sqrt(w / eta)``.
        """
        eta = np.asarray(viscosity, dtype=np.float64)
        if eta.ndim == 2:
            if eta.shape[0] != self.nb:
                raise ValueError(
                    f"batched viscosity has {eta.shape[0]} scenarios, "
                    f"operator was built for {self.nb}"
                )
            # element-major, scenario-minor flat order e * nb + b
            eta = np.ascontiguousarray(eta.T).ravel()
        elif self.nb > 1:
            raise ValueError("batched operator needs a (nb, ne) viscosity")
        sihT = np.sqrt(self.w * eta)[None, :] * self.ihT  # (3, ne)
        self.sihT = sihT
        # grad-grad coefficient on pre-scaled gradients:
        # c1T[a, b, e] gs[a, b] = w eta / h_b^2 * d_b u_a
        self.c1T = sihT[None, :, :] ** 2 / sihT[:, None, :]
        self.negwihT = -(self.w[None, :] * self.ihT)  # (3, ne)
        self.s_div = np.sqrt(self.w / eta)  # divergence-channel prefactor
        self.w_over_eta = self.w / eta  # stabilization mass prefactor
        self.stab_mean = self.vol / 64.0 / eta  # rank-one DB projection term

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Full saddle matvec ``[[A, B^T], [B, -C]] x``.

        In batched mode ``x`` is ``(n_dof, nb)`` — one scenario per
        column — and the result has the same shape; every GEMM below then
        advances all ``nb`` scenarios at once on the merged
        element-batch axis.
        """
        obs.counter("matfree_applies")
        ne = self.mesh.n_elements
        m = ne * self.nb
        u, p = x[: self.n_u], x[self.n_u :]
        # gather to element space (constraints + Dirichlet mask folded in)
        # and pre-scale each component by sih_a (see update_viscosity)
        UeT = (self.gu.G @ u).reshape(3, 8, m)
        UeT *= self.sihT[:, None, :]
        peT = (self.gp.G @ p).reshape(8, m)
        # forward: all nine reduced-grid reference gradients in one
        # batched GEMM; gs[a, 4 b + m, e] = sih_a d_b u_a at reduced
        # point m of element e
        gs = np.matmul(_FWD_RED_T[None], UeT, out=self._g)
        pqT = np.matmul(E8, peT, out=self._pq)
        # velocity row, term 1: Sum_b G8[b]^T (w eta / h_b^2) d_b u_a —
        # every channel is b-reduced, one fused backward GEMM
        t1 = self._t1
        np.multiply(
            gs.reshape(3, 3, 4, m), self.c1T[:, :, None, :], out=t1.reshape(3, 3, 4, m)
        )
        acc = np.matmul(_BWD_RED_T[None], t1, out=self._acc)
        # one batched GEMM for everything else.  Batch a < 3 (velocity
        # component a): transposed gradients d_a u_b are all a-reduced,
        # contracted with Dup_a^T G8[b], plus the B^T p channel
        # -w/h_a p(x_q) through the G8[a] block.  Batch 3 (pressure row):
        # divergence channels sqrt(w/eta) gs[a, a] through -Dup_a^T E8 and
        # the Dohrmann-Bochev mass channel w/eta p(x_q) through -E8.
        cin = self._cin
        gs4 = gs.reshape(3, 3, 4, m)
        for a in range(3):  # lint: allow-loop
            np.multiply(
                gs4[:, a, :, :],
                self.sihT[a, None, None, :],
                out=cin[a, :12].reshape(3, 4, m),
            )
            np.multiply(
                gs4[a, a, :, :],
                self.s_div[None, :],
                out=cin[3, 4 * a : 4 * a + 4],
            )
        np.multiply(self.negwihT[:, None, :], pqT[None], out=cin[:3, 12:])
        np.multiply(self.w_over_eta[None, :], pqT, out=cin[3, 12:])
        cout = np.matmul(_CORR_T, cin, out=self._cout)
        acc += cout[:3]
        ope = cout[3]
        ope += (self.stab_mean * peT.sum(axis=0))[None, :]
        out = np.empty_like(x)
        if x.ndim == 1:
            out[self.n_u :] = self.gp.GT @ ope.ravel()
            out_u = out[: self.n_u]
            out_u[:] = self.gu.GT @ acc.ravel()
            out_u += self.gu.imask * u  # identity rows of apply_dirichlet
        else:
            # also reached by a width-1 batch (a lone compacted column)
            # (8, ne * nb) -> (8 ne, nb) is a free reshape (same strides)
            out[self.n_u :] = self.gp.GT @ ope.reshape(8 * ne, self.nb)
            out_u = out[: self.n_u]
            out_u[:] = self.gu.GT @ acc.reshape(24 * ne, self.nb)
            out_u += self.gu.imask[:, None] * u
        return out

    def apply_divergence(self, u: np.ndarray) -> np.ndarray:
        """``B u`` alone (for divergence residual norms)."""
        if self.nb != 1:
            raise ValueError("apply_divergence is serial-only; slice one scenario")
        ne = self.mesh.n_elements
        UeT = (self.gu.G @ u).reshape(3, 8, ne)
        g = np.matmul(_FWD_GRAD_T[None], UeT).reshape(3, 3, 8, ne)
        g *= self.ihT[None, :, None, :]
        div = g[0, 0] + g[1, 1] + g[2, 2]  # (8, ne)
        return self.gp.GT @ (E8.T @ (-self.w[None, :] * div)).ravel()


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
    """Flops per tensor-variant saddle apply with the reduced-grid
    kernel: the batched forward/backward gradient GEMMs run on 4-point
    grids (12 channels per component), the correction GEMM carries 20
    channels for 4 batches, and every coefficient application is a
    broadcast multiply."""
    per_elem = (
        2 * 3 * 8 * 12  # forward reduced-gradient GEMM (3 components)
        + 2 * 8 * 8  # pressure value evaluation
        + 36  # grad-grad coefficient multiply
        + 2 * 3 * 12 * 8  # backward grad-grad GEMM
        + (36 + 12 + 24 + 8)  # correction channel fills
        + 2 * 4 * 20 * 8  # batched correction GEMM
        + (24 + 16)  # accumulate + stabilization rank-one term
    )
    return per_elem * n_elements


def saddle_apply_bytes(n_elements: int, gather_nnz: int) -> int:
    """Bytes streamed per tensor saddle apply: gather/scatter CSR traffic
    (8-byte value + 8-byte column index per entry, both directions) plus
    one read + one write of each element-minor workspace (Ue 24, pe 8,
    gs 36, t1 36, acc 24, pq 8, cin 80, cout 32 doubles per element)."""
    return 2 * 16 * gather_nnz + 8 * n_elements * 2 * (24 + 8 + 36 + 36 + 24 + 8 + 80 + 32)


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
