"""Geometric multigrid on the forest refinement hierarchy.

The octree the mesh was extracted from *is* a grid hierarchy, so coarse
levels come from coarsening the forest itself (complete 8-sibling
families, re-balanced 2:1), restriction and prolongation are exact
trilinear embeddings between the nested FE spaces, and every level
operator is the *rediscretised* scalar Poisson operator of that level's
mesh with the volume-averaged viscosity
(:func:`repro.fem.stokes.poisson_blocks`, once per level).  The three
velocity components are one problem: level operator, masked transfers
and Chebyshev coefficients are
block-diagonal over the stacked ``(3n,)`` velocity vector MINRES hands
over, so a preconditioner apply is one V-cycle of plain CSR mat-vecs.
The coarsest level (a few dozen dofs per component) is a dense solve.
The V-cycle takes ``(3n,)`` or ``(3n, nb)``: trailing columns are
independent right-hand sides sharing the hierarchy (the fleet's batch
axis; ``A @ X`` is then scipy's ``csr_matvecs``).

Why assembled: at trilinear order in NumPy the CSR mat-vec beats the
sum-factorised apply on every level (80 / 16 / 6 / 4 us against
231 / 53 / 24 / 19 us on the 6 345 / 1 160 / 333 / 134-dof levels of the
benchmark's mesh), a V-cycle hierarchy serves ~2 000 applies per build,
and assembly pays for itself after ~135.  The matrix-free operator this
module used to carry is the oracle ``tests/oracles/gmg_levels.py``.

Grounding: the paper's own assembled per-component V-cycle (Sec. III,
VII), Clevenger & Heister's AMG-vs-GMG comparison on adaptive
variable-viscosity Stokes (PAPERS.md).  Design notes in DESIGN.md section
4i; usage and tuning in SOLVERS.md.

Key facts the construction relies on:

- ``LinearOctree.coarsen`` (the one-tree forest's ``Forest.coarsen``)
  only replaces *complete* marked sibling families by their parent, and
  2:1 re-balance of a coarsened tree never refines past the original, so every coarse leaf is an ancestor-or-self
  of fine leaves: the coarse FE space is a *subspace* of the fine one
  and the trilinear interpolation operator ``P`` is an exact embedding.
- Independent (non-hanging) nodes of the coarse mesh are independent
  nodes of the fine mesh, so ``P`` restricted to coincident nodes is the
  identity (the round-trip invariant pinned by the tests).

Viscosity-independent structure (hierarchy, prolongations, masked
stacked transfers) lives in :func:`repro.mesh.opcache.operator_cache`,
giving the same structural invalidation under AMR and the same
``REPRO_SANITIZE=1`` freeze/verify guards as the rest of the operator
stack; a viscosity update re-assembles the level matrices and nothing
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..fem.stokes import poisson_blocks, velocity_bcs
from ..mesh.opcache import operator_cache
from ..octree import ROOT_LEN, balance

if TYPE_CHECKING:
    from ..fem.stokes import StokesSystem
    from ..mesh import Mesh

__all__ = [
    "GridHierarchy",
    "mesh_hierarchy",
    "coarse_viscosities",
    "prolongation",
    "masked_transfers",
    "StackedPoissonLevel",
    "ChebyshevSmoother",
    "GMGLevel",
    "GeometricMultigrid",
    "GMGStokesPreconditioner",
]

#: the hierarchy stops at this many levels even if the coarsest is still
#: above ``max_coarse``
MAX_LEVELS = 20
#: Chebyshev smoother: polynomial degree, safety factor on the power-
#: iteration estimate of ``lmax``, width ``lmax / lmin`` of the targeted
#: upper spectrum, and the power iterations and seed of that estimate
CHEB_DEGREE = 3
CHEB_LMAX_SCALE = 1.1
CHEB_LMIN_RATIO = 8.0
CHEB_POWER_ITERS = 12
CHEB_SEED = 0


# -- forest-derived grid hierarchy ----------------------------------------------


@dataclass
class GridHierarchy:
    """The nested mesh levels of one fine mesh.

    ``meshes[0]`` is the fine mesh; each following entry is extracted
    from the 2:1 re-balanced full coarsening of the previous tree.
    ``elem_maps[l][f]`` is the index of the level ``l+1`` element that
    contains fine element ``f`` of level ``l`` (every fine element lies
    in exactly one coarse element — the nestedness invariant).
    """

    meshes: list
    elem_maps: list


def mesh_hierarchy(mesh: Mesh, max_coarse: int = 80) -> GridHierarchy:
    """Build (or fetch from the mesh's operator cache) the coarsening
    hierarchy of ``mesh``.

    Levels are derived by marking *every* leaf for coarsening — only
    complete sibling families actually coarsen — then re-balancing 2:1
    (corner connectivity, matching the fine mesh invariant) and
    re-extracting.  Stops when the independent-dof count drops to
    ``max_coarse``, the tree stops shrinking, or :data:`MAX_LEVELS` is
    hit.
    Requires ``mesh.tree`` (distributed submeshes carry no tree).
    """
    if mesh.tree is None:
        raise ValueError(
            "geometric multigrid needs mesh.tree (the extraction octree); "
            "distributed submeshes are not supported"
        )

    def build():
        from ..mesh import extract_mesh

        meshes = [mesh]
        elem_maps = []
        while meshes[-1].n_independent > max_coarse and len(meshes) < MAX_LEVELS:
            fine = meshes[-1]
            tree = fine.tree
            tree_c, n_fam = tree.coarsen(np.ones(len(tree), dtype=bool))
            if n_fam == 0:
                break
            tree_c = balance(tree_c, "corner").tree
            if len(tree_c) >= len(tree):
                break  # balance refined everything back: no progress
            mesh_c = extract_mesh(tree_c, fine.domain)
            lv = fine.leaves
            half = lv.lengths() // 2
            emap = tree_c.find_containing(lv.x + half, lv.y + half, lv.z + half)
            meshes.append(mesh_c)
            elem_maps.append(emap.astype(np.int64))
        return GridHierarchy(meshes=meshes, elem_maps=elem_maps)

    return operator_cache(mesh).get(("gmg_hierarchy", max_coarse), build)


def coarse_viscosities(hier: GridHierarchy, eta: np.ndarray) -> list:
    """Per-level element viscosities: the volume-weighted arithmetic mean
    of the children, chained level by level (a constant field stays
    exactly constant on every level)."""
    etas = [np.asarray(eta, dtype=np.float64)]
    for level, emap in enumerate(hier.elem_maps):  # lint: allow-loop (level count)
        mesh_f = hier.meshes[level]
        nc = hier.meshes[level + 1].n_elements
        vol = mesh_f.element_sizes().prod(axis=1)
        den = np.bincount(emap, weights=vol, minlength=nc)
        if np.any(den <= 0):
            raise AssertionError("coarse element with no fine children")
        num = np.bincount(emap, weights=vol * etas[-1], minlength=nc)
        etas.append(num / den)
    return etas


# -- inter-grid transfer --------------------------------------------------------


def prolongation(mesh_f: Mesh, mesh_c: Mesh) -> sp.csr_matrix:
    """Unmasked prolongation ``(n_fine_indep, n_coarse_indep)``: evaluate
    the coarse FE basis (hanging-node constraints folded in through
    ``Z_c``) at the fine independent node positions.

    Because the coarse space is nested in the fine space this is the
    exact subspace embedding, and its transpose is the (Galerkin-
    consistent) restriction.  Cached on the fine mesh.
    """

    def build():
        coords = mesh_f.node_coords_int[mesh_f.indep_nodes]
        nf = coords.shape[0]
        # nodes on the +max domain faces lie on the boundary of the last
        # octant; clamp the containment query into the root box
        q = np.minimum(coords, ROOT_LEN - 1)
        eidx = mesh_c.tree.find_containing(q[:, 0], q[:, 1], q[:, 2])
        lv = mesh_c.tree.leaves
        anchors = np.stack([lv.x, lv.y, lv.z], axis=1).astype(np.int64)[eidx]
        h = lv.lengths().astype(np.float64)[eidx]
        # loc components are dyadic rationals (integer coords, power-of-2
        # h), so the trilinear weights are exact and deterministic
        loc = (coords - anchors) / h[:, None]
        wab = np.stack([1.0 - loc, loc])  # (2, nf, 3)
        W = np.empty((nf, 8), dtype=np.float64)
        for i in range(8):  # lint: allow-loop (8 corners)
            W[:, i] = wab[i & 1, :, 0] * wab[(i >> 1) & 1, :, 1] * wab[(i >> 2) & 1, :, 2]
        rows = np.repeat(np.arange(nf, dtype=np.int64), 8)
        cols = mesh_c.element_nodes[eidx].ravel()
        E = sp.csr_matrix((W.ravel(), (rows, cols)), shape=(nf, mesh_c.n_nodes))
        P = sp.csr_matrix(E @ mesh_c.Z)
        P.eliminate_zeros()
        P.sort_indices()
        return P

    return operator_cache(mesh_f).get("gmg_prolong", build)


def _block_diag_csr(blocks: list) -> sp.csr_matrix:
    """Equal-shaped CSR ``blocks`` on one block diagonal, by
    concatenating their arrays (``sp.block_diag`` goes through COO:
    twice the transient memory on the largest matrices of a build)."""
    nr, nc = blocks[0].shape
    nnz = np.cumsum([0] + [b.nnz for b in blocks]).tolist()  # ints: keep int32
    indptr = np.concatenate(
        [blocks[0].indptr[:1]] + [b.indptr[1:] + off for b, off in zip(blocks, nnz)]
    )
    indices = np.concatenate([b.indices + a * nc for a, b in enumerate(blocks)])
    data = np.concatenate([b.data for b in blocks])
    k = len(blocks)
    return sp.csr_matrix((data, indices, indptr), shape=(k * nr, k * nc))


def masked_transfers(mesh_f: Mesh, mesh_c: Mesh, bc_kind: str) -> tuple:
    """The transfer pair of the stacked velocity vector between two
    neighbouring levels: ``P`` is :func:`prolongation` once per component
    on the block diagonal, ``(3 n_fine, 3 n_coarse)``, with each
    component's Dirichlet rows and columns zeroed, and ``R`` its
    transpose stored as CSR (not re-derived per V-cycle).  Independent
    of the viscosity, so cached on the fine mesh per ``bc_kind``."""

    def free(mesh):
        mask = np.ones(3 * mesh.n_independent, dtype=np.float64)
        mask[velocity_bcs(mesh, bc_kind).dofs] = 0.0
        return sp.diags(mask)

    def build():
        P3 = _block_diag_csr([prolongation(mesh_f, mesh_c)] * 3)
        P = sp.csr_matrix(free(mesh_f) @ P3 @ free(mesh_c))
        P.eliminate_zeros()
        return P, sp.csr_matrix(P.T)

    return operator_cache(mesh_f).get(("gmg_transfers", bc_kind), build)


# -- assembled level operator ---------------------------------------------------


class StackedPoissonLevel:
    """The smoothing operator of one hierarchy level: the three
    Dirichlet-masked variable-viscosity scalar Poisson blocks
    ``D_a Z^T K(eta) Z D_a + (I - D_a)`` of
    :func:`repro.fem.stokes.poisson_blocks`, rediscretised on this
    level's mesh, as one block-diagonal CSR matrix ``A`` over the stacked
    ``(3n,)`` velocity vector.  One ``assemble_scalar`` per build, each
    component's Dirichlet mask applied entry by entry (no ``D K D``
    products); the unmasked stiffness is dropped as soon as the masked
    blocks exist.
    """

    def __init__(self, mesh: Mesh, viscosity: np.ndarray, bc_kind: str):
        self.mesh = mesh
        self.bc_kind = bc_kind
        self.n = 3 * mesh.n_independent
        self.update_viscosity(viscosity)

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Re-assemble for a new per-element viscosity of this level."""
        eta = np.asarray(viscosity, dtype=np.float64)
        if eta.shape != (self.mesh.n_elements,):
            raise ValueError("viscosity must be per-element")
        self.A = _block_diag_csr(poisson_blocks(self.mesh, eta, self.bc_kind))
        self._diag = self.A.diagonal()
        if np.any(self._diag <= 0):
            raise AssertionError("non-positive operator diagonal")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for a stacked ``(3n,)`` vector or ``(3n, nb)`` block."""
        return self.A @ x

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``A`` (1 on Dirichlet rows)."""
        return self._diag


# the benchmark's traced pass binds the level apply under this name
# (bench/layers.py); the next [benchmark] PR repoints it and deletes this
MatFreeScalarPoisson = StackedPoissonLevel


# -- Chebyshev smoother ---------------------------------------------------------


class ChebyshevSmoother:
    """Degree-:data:`CHEB_DEGREE` Chebyshev smoother on the
    Jacobi-preconditioned operator ``D^{-1} A``, targeting the upper
    spectrum ``[lmax/CHEB_LMIN_RATIO, lmax]`` of each velocity component.

    As an operator the zero-initial-guess application is a polynomial
    ``p(D^{-1}A) D^{-1}`` — symmetric w.r.t. the Euclidean inner product
    because ``D`` and ``A`` are — which is what makes the V-cycle below a
    valid SPD MINRES preconditioner block.  ``lmax`` (one value per
    component: the blocks of ``A`` differ by their Dirichlet rows) is a
    deterministic power-iteration estimate inflated by
    :data:`CHEB_LMAX_SCALE` (the standard safety margin against
    underestimation).  The recurrence scalars depend only on
    :data:`CHEB_LMIN_RATIO`, so the three components share them and only
    the two Jacobi scalings are per-dof.
    """

    def __init__(self, op: StackedPoissonLevel):
        self.op = op
        self.dinv = 1.0 / op.diagonal()
        self.lmax = CHEB_LMAX_SCALE * self._estimate_lmax()
        self.lmin = self.lmax / CHEB_LMIN_RATIO
        theta = 0.5 * (self.lmax + self.lmin)
        delta = 0.5 * (self.lmax - self.lmin)
        # theta / delta
        self._sigma = (CHEB_LMIN_RATIO + 1.0) / (CHEB_LMIN_RATIO - 1.0)
        n = op.n // 3
        self._first = self.dinv / np.repeat(theta, n)
        self._step = 2.0 * self.dinv / np.repeat(delta, n)

    def _estimate_lmax(self) -> np.ndarray:
        """Power iteration on ``D^{-1} A``, normalised per component so
        each block converges to its own largest eigenvalue (fixed seed:
        deterministic)."""
        rng = np.random.default_rng(CHEB_SEED)
        x = np.tile(rng.standard_normal(self.op.n // 3), (3, 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        lam = np.ones(3)
        for _ in range(CHEB_POWER_ITERS):  # lint: allow-loop (power iteration)
            y = (self.dinv * self.op.apply(x.ravel())).reshape(3, -1)
            lam = np.linalg.norm(y, axis=1)
            x = y / lam[:, None]
        return lam

    def apply(self, b: np.ndarray) -> np.ndarray:
        """One zero-initial-guess smoothing application ``x = S b``
        (the three-term Chebyshev recurrence, ``CHEB_DEGREE - 1``
        operator applies) to a ``(3n,)`` vector or the columns of a ``(3n, nb)``
        block."""
        first, step = self._first, self._step
        if b.ndim == 2:
            first, step = first[:, None], step[:, None]
        sigma = self._sigma
        rho_old = 1.0 / sigma
        d = first * b
        x = d
        r = b
        for _ in range(CHEB_DEGREE - 1):  # lint: allow-loop (poly degree)
            r = r - self.op.apply(d)
            rho = 1.0 / (2.0 * sigma - rho_old)
            d = (rho * rho_old) * d + rho * (step * r)
            x = x + d
            rho_old = rho
        return x


# -- V-cycle --------------------------------------------------------------------


@dataclass
class GMGLevel:
    """One grid level: the assembled stacked operator, its Chebyshev
    smoother (``None`` on the coarsest level), and the
    :func:`masked_transfers` pair between this level and the next finer
    one (both ``None`` on the finest level)."""

    op: StackedPoissonLevel
    smoother: ChebyshevSmoother | None
    P: sp.csr_matrix | None
    R: sp.csr_matrix | None = None


class GeometricMultigrid:
    """V-cycle over the :class:`GMGLevel` stack of ``mesh``, all three
    velocity components at once.

    Set-up derives the grid hierarchy from the mesh's own octree
    (:func:`mesh_hierarchy`) and the masked transfers between its levels
    (:func:`masked_transfers`) — both cached per mesh — averages the
    element ``viscosity`` onto each level, assembles each level's
    operator and estimates its smoother bounds (``max_coarse`` goes to
    the hierarchy).

    Cycle structure (pre-smooth, coarse-grid correction, post-smooth with
    the same symmetric smoother ``S``) makes one zero-initial-guess cycle
    the operator ``2S - SAS + (I - SA) C (I - AS)`` — symmetric, and
    positive definite while the smoothed spectrum stays below 2 (the
    Chebyshev safety margin guarantees it) — so it is usable directly as
    a MINRES preconditioner block, like one AMG V-cycle per component.
    """

    def __init__(
        self,
        mesh: Mesh,
        viscosity: np.ndarray,
        bc_kind: str,
        max_coarse: int = 80,
    ):
        self.bc_kind = bc_kind
        with obs.phase("gmg_setup"):
            self.hierarchy = mesh_hierarchy(mesh, max_coarse=max_coarse)
            meshes = self.hierarchy.meshes
            self._transfers = [(None, None)] + [
                masked_transfers(f, c, bc_kind) for f, c in zip(meshes, meshes[1:])
            ]
            self._build_levels(viscosity)

    def _build_levels(self, viscosity: np.ndarray) -> None:
        """Everything the viscosity enters: per-level averages, level
        matrices, smoother bounds, and the dense coarsest solve, one
        ``(nc, nc)`` pseudo-inverse per component (pinv tolerates
        semi-definiteness)."""
        meshes = self.hierarchy.meshes
        etas = coarse_viscosities(self.hierarchy, np.asarray(viscosity, np.float64))
        self.levels = []
        for m, eta, (P, R) in zip(meshes, etas, self._transfers):  # lint: allow-loop (level count)
            op = StackedPoissonLevel(m, eta, self.bc_kind)
            smoother = (
                None if m is meshes[-1] else ChebyshevSmoother(op)
            )
            self.levels.append(GMGLevel(op=op, smoother=smoother, P=P, R=R))
        op = self.levels[-1].op
        nc = op.n // 3
        a = np.arange(3)
        Ac = op.A.toarray().reshape(3, nc, 3, nc)[a, :, a, :]
        Ac = 0.5 * (Ac + Ac.transpose(0, 2, 1))
        self._coarse_inv = np.linalg.pinv(Ac, hermitian=True)

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Rebuild what depends on the viscosity and keep the hierarchy
        and the transfers (the lagged path's rebuild on an unchanged
        mesh)."""
        with obs.phase("gmg_setup"):
            self._build_levels(viscosity)

    @property
    def n_levels(self) -> int:
        """Number of grid levels (including the dense coarsest one)."""
        return len(self.levels)

    def grid_sizes(self) -> list:
        """Independent-dof count per level and component, finest first."""
        return [lvl.op.n // 3 for lvl in self.levels]

    @property
    def operator_complexity(self) -> float:
        """Total nonzeros over all level matrices / fine nonzeros (the
        same measure AMG reports)."""
        nnz = [lvl.op.A.nnz for lvl in self.levels]
        return sum(nnz) / max(nnz[0], 1)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        if k == len(self.levels) - 1:
            with obs.phase("stokes/gmg/coarse"):
                nc = self._coarse_inv.shape[1]
                return (self._coarse_inv @ b.reshape(3, nc, -1)).reshape(b.shape)
        lvl, coarse = self.levels[k], self.levels[k + 1]
        with obs.phase(f"stokes/gmg/level{k}"):
            with obs.phase("smooth"):
                x = lvl.smoother.apply(b)
                r = b - lvl.op.apply(x)
            with obs.phase("transfer"):
                rc = coarse.R @ r
        xc = self._cycle(k + 1, rc)
        with obs.phase(f"stokes/gmg/level{k}"):
            with obs.phase("transfer"):
                x = x + coarse.P @ xc
            with obs.phase("smooth"):
                x = x + lvl.smoother.apply(b - lvl.op.apply(x))
        return x

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle with zero initial guess on a stacked ``(3n,)``
        residual, or on each column of a ``(3n, nb)`` block of them: an
        SPD approximation of ``A^{-1}`` suitable as a MINRES
        preconditioner block."""
        obs.counter("gmg_vcycles")
        return self._cycle(0, b)


# -- the Stokes block preconditioner --------------------------------------------


class GMGStokesPreconditioner:
    """The Stokes block preconditioner ``P = diag(Atilde, Stilde)`` of
    the drivers: ``Atilde`` applied as one :class:`GeometricMultigrid`
    V-cycle over the stacked velocity components (``max_coarse`` goes to
    it) where the paper applies three AMG V-cycles, and
    ``Stilde`` the inverse-viscosity-weighted lumped pressure mass.
    :class:`repro.solvers.blockprec.LaggedStokesPreconditioner` lags its
    setup.
    """

    def __init__(self, stokes: StokesSystem, max_coarse: int = 80):
        self.n = stokes.mesh.n_independent
        with obs.phase("prec_setup"):
            self.gmg = GeometricMultigrid(
                stokes.mesh, stokes.viscosity, stokes.bc_kind, max_coarse=max_coarse
            )
            self.refresh_schur(stokes)
        self.n_vcycles = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``z = P^{-1} r``: one stacked GMG V-cycle plus a diagonal
        scaling."""
        n3 = 3 * self.n
        z = np.empty_like(r)
        z[:n3] = self.gmg.vcycle(r[:n3])
        self.n_vcycles += 1
        z[n3:] = r[n3:] / self.schur_diag
        return z

    def refresh_schur(self, stokes: StokesSystem) -> None:
        """Rebind to a new system on the same mesh, refreshing only the
        cheap diagonal Schur approximation (the lagged-reuse path)."""
        self.schur_diag = stokes.schur_diagonal()
        if np.any(self.schur_diag <= 0):
            raise AssertionError("Schur diagonal must be positive")

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """:meth:`GeometricMultigrid.update_viscosity` (the lagged path's
        rebuild on an unchanged mesh)."""
        self.gmg.update_viscosity(viscosity)

    @property
    def operator_complexity(self) -> float:
        """Operator complexity of the level-matrix hierarchy."""
        return self.gmg.operator_complexity

    def grid_sizes(self) -> list:
        """Independent-dof count per level (per velocity component)."""
        return self.gmg.grid_sizes()

    def frozen_state(self) -> list:
        """Arrays fingerprinted by the lagged-preconditioner sanitizer:
        per-level matrices, smoother scalings and transfers, plus the
        coarse dense inverses — in-place mutation of any of these would
        break the lagging premise silently."""
        out = [self.gmg._coarse_inv]
        for lvl in self.gmg.levels:
            out.append([lvl.op.A, lvl.P, lvl.R])
            if lvl.smoother is not None:
                out.append([lvl.smoother._first, lvl.smoother._step])
        return out
