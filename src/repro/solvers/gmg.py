"""Matrix-free geometric multigrid on the forest refinement hierarchy.

The AMG path (:mod:`repro.solvers.amg`) preconditions each velocity
component with an algebraic V-cycle, which forces *sparse assembly* of
the scalar Poisson blocks — the last assembly dependence left after the
tensor apply engine (:mod:`repro.fem.matfree`) made the operator itself
matrix-free, and the dominant cold-setup cost under AMR.  This module
removes it: the octree the mesh was extracted from *is* a grid
hierarchy, so coarse levels come from coarsening the forest itself
(complete 8-sibling families, re-balanced 2:1), restriction and
prolongation are exact trilinear embeddings between the nested FE
spaces, smoothing is Chebyshev built from the exact matrix-free operator
diagonal, and only the coarsest level (a few dozen dofs) keeps a dense
solve — itself built by applying the matrix-free operator to the
identity.  No sparse operator is assembled at any level.

Grounding: Clevenger & Heister's AMG-vs-matrix-free-GMG comparison on
adaptive variable-viscosity Stokes, and Burkhart et al.'s matrix-free
high-contrast Stokes (PAPERS.md).  Design notes in DESIGN.md section 4i;
usage and tuning in SOLVERS.md.

Key facts the construction relies on:

- ``LinearOctree.coarsen`` only replaces *complete* marked sibling
  families by their parent, and 2:1 re-balance of a coarsened tree never
  refines past the original, so every coarse leaf is an ancestor-or-self
  of fine leaves: the coarse FE space is a *subspace* of the fine one
  and the trilinear interpolation operator ``P`` is an exact embedding.
- Independent (non-hanging) nodes of the coarse mesh are independent
  nodes of the fine mesh, so ``P`` restricted to coincident nodes is the
  identity (the round-trip invariant pinned by the tests).
- The constrained operator diagonal ``diag(D Z^T K Z D + (I - D))`` has
  a closed per-element form: grouping the gather entries by (element,
  dof) yields dense 8-vectors ``z`` with contribution
  ``sum_b c_b z^T K_b z``, where ``K_b = G8[b]^T G8[b]`` is
  viscosity-independent — so the structure is cached per mesh and a
  Picard viscosity update re-weights it in O(ne).

All mesh-derived structure (hierarchy, gathers, transfers, diagonal
factors) lives in :func:`repro.mesh.opcache.operator_cache`, giving the
same structural invalidation under AMR and the same ``REPRO_SANITIZE=1``
freeze/verify guards as the rest of the operator stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..mesh.opcache import operator_cache
from ..octree import ROOT_LEN, balance

if TYPE_CHECKING:  # type-only: repro.fem imports this package through mangll
    from ..fem.stokes import StokesSystem
    from ..mesh import Mesh

__all__ = [
    "GridHierarchy",
    "mesh_hierarchy",
    "coarse_viscosities",
    "prolongation",
    "component_bc_dofs",
    "MatFreeScalarPoisson",
    "ChebyshevSmoother",
    "GMGLevel",
    "GeometricMultigrid",
    "GMGStokesPreconditioner",
]


def _matfree():
    """The :mod:`repro.fem.matfree` module, imported lazily.

    ``repro.fem`` reaches this package through ``mangll.dg`` during
    initialization, so a module-level import here would close an import
    cycle; deferring to first use (always after both packages finished
    importing) breaks it.
    """
    from ..fem import matfree

    return matfree


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


def mesh_hierarchy(mesh: Mesh, max_coarse: int = 80, max_levels: int = 20) -> GridHierarchy:
    """Build (or fetch from the mesh's operator cache) the coarsening
    hierarchy of ``mesh``.

    Levels are derived by marking *every* leaf for coarsening — only
    complete sibling families actually coarsen — then re-balancing 2:1
    (corner connectivity, matching the fine mesh invariant) and
    re-extracting.  Stops when the independent-dof count drops to
    ``max_coarse``, the tree stops shrinking, or ``max_levels`` is hit.
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
        while meshes[-1].n_independent > max_coarse and len(meshes) < max_levels:
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

    return operator_cache(mesh).get(("gmg_hierarchy", max_coarse, max_levels), build)


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


def component_bc_dofs(mesh: Mesh, bc_kind: str, axis: int) -> np.ndarray:
    """Dirichlet-constrained scalar dofs of velocity component ``axis``
    (same rule as ``StokesSystem``: free-slip pins the normal component
    on its two faces, no-slip pins everything on the whole boundary)."""
    if bc_kind == "free_slip":
        nodes = mesh.boundary_node_mask(axis=axis, side=0) | mesh.boundary_node_mask(
            axis=axis, side=1
        )
    elif bc_kind == "no_slip":
        nodes = mesh.boundary_node_mask()
    else:
        raise ValueError(f"unknown bc {bc_kind!r}")
    dofs = mesh.dof_of_node[np.flatnonzero(nodes)]
    return np.unique(dofs[dofs >= 0])


# -- matrix-free scalar Poisson level operator ----------------------------------


class MatFreeScalarPoisson:
    """Sum-factorized apply of one Dirichlet-masked variable-viscosity
    scalar Poisson block ``D Z^T K(eta) Z D + (I - D)`` — the per-level,
    per-component smoothing operator of the GMG hierarchy.

    Equivalent (to rounding) to
    ``apply_dirichlet(assemble_scalar(stiffness(eta)), bc_dofs)`` but
    never assembles: the element kernel is the reduced-grid gradient
    chain of :mod:`repro.fem.matfree` behind the constraint-folding
    gather, the Dirichlet mask ``D`` is applied as vector operations
    around the unconstrained apply, and identity rows are restored
    explicitly.  Because the mask stays outside, the gather and the
    diagonal structure are component-independent — cached once per mesh
    and shared by all three velocity components (a 3x setup saving).
    A viscosity update only re-weights per-element coefficients.
    """

    def __init__(self, mesh: Mesh, viscosity: np.ndarray, bc_dofs: np.ndarray):
        mf = _matfree()
        self.mesh = mesh
        self.n = mesh.n_independent
        cache = operator_cache(mesh)

        def build_gather():
            G = sp.csr_matrix(mesh.Z[mesh.element_nodes.T.ravel()])
            G.eliminate_zeros()
            return mf._Gather(G, np.ones(self.n, dtype=np.float64))

        self.g = cache.get("gmg_gather", build_gather)
        self.mask = np.ones(self.n, dtype=np.float64)
        self.mask[bc_dofs] = 0.0
        self.imask = 1.0 - self.mask
        w, ih, _ = mf._geometry(mesh)
        self._w = w
        self._ihT = np.ascontiguousarray(ih.T)  # (3, ne)
        self.update_viscosity(viscosity)

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Rebind the per-element coefficients ``c_b = w eta / h_b^2``
        (all a Picard viscosity update costs at any level)."""
        eta = np.asarray(viscosity, dtype=np.float64)
        if eta.shape != (self.mesh.n_elements,):
            raise ValueError("viscosity must be per-element")
        self.cb = (self._w * eta)[None, :] * self._ihT**2  # (3, ne)
        self._diag = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``(D Z^T K Z D + I - D) x`` for ``x`` of shape ``(n,)`` or
        ``(n, k)`` (multi-column applies build the coarse dense solve)."""
        mf = _matfree()
        ne = self.mesh.n_elements
        k = 1 if x.ndim == 1 else x.shape[1]
        xm = self.mask * x if x.ndim == 1 else self.mask[:, None] * x
        # rows of G are i*ne + e, so (8 ne, k) -> (8, ne k) is a free
        # reshape onto the merged element-column axis m = e*k + j
        Xe = (self.g.G @ xm).reshape(8, ne * k)
        cb = self.cb if k == 1 else np.repeat(self.cb, k, axis=1)
        gs = mf._FWD_RED_T @ Xe  # (12, m): reduced-grid reference gradients
        gs.reshape(3, 4, -1)[...] *= cb[:, None, :]
        out_e = mf._BWD_RED_T @ gs  # (8, m)
        if x.ndim == 1:
            out = self.mask * (self.g.GT @ out_e.ravel())
            out += self.imask * x
        else:
            out = self.mask[:, None] * (self.g.GT @ out_e.reshape(8 * ne, k))
            out += self.imask[:, None] * x
        return out

    def _diag_structure(self):
        """Viscosity- and component-independent diagonal factors, cached
        per mesh: gather entries grouped by (element, dof) give dense
        8-vectors ``z_g``; ``t[b, g] = z_g^T K_b z_g`` with
        ``K_b = G8[b]^T G8[b]``."""
        mf = _matfree()

        def build():
            coo = self.g.G.tocoo()
            ne = self.mesh.n_elements
            i = coo.row // ne
            e = coo.row % ne
            key = e.astype(np.int64) * self.n + coo.col.astype(np.int64)
            uk, gid = np.unique(key, return_inverse=True)
            Zd = np.zeros((len(uk), 8), dtype=np.float64)
            Zd[gid, i] = coo.data
            ge = (uk // self.n).astype(np.int64)
            gd = (uk % self.n).astype(np.int64)
            Kb = np.stack([mf.G8[b].T @ mf.G8[b] for b in range(3)])
            t = np.stack(
                [((Zd @ Kb[b]) * Zd).sum(axis=1) for b in range(3)]
            )
            return ge, gd, t

        return operator_cache(self.mesh).get("gmg_diag_struct", build)

    def diagonal(self) -> np.ndarray:
        """The exact diagonal of the constrained masked operator
        (1 on Dirichlet rows), assembled from the cached structure —
        no sparse matrix at any point."""
        if self._diag is None:
            ge, gd, t = self._diag_structure()
            wsum = (self.cb[:, ge] * t).sum(axis=0)
            d = np.bincount(gd, weights=wsum, minlength=self.n)
            d = self.mask * d + self.imask  # identity rows of the mask
            if np.any(d <= 0):
                raise AssertionError("non-positive operator diagonal")
            self._diag = d
        return self._diag


# -- Chebyshev smoother ---------------------------------------------------------


class ChebyshevSmoother:
    """Degree-``degree`` Chebyshev smoother on the Jacobi-preconditioned
    operator ``D^{-1} A``, targeting the upper spectrum
    ``[lmax/lmin_ratio, lmax]``.

    As an operator the zero-initial-guess application is a polynomial
    ``p(D^{-1}A) D^{-1}`` — symmetric w.r.t. the Euclidean inner product
    because ``D`` and ``A`` are — which is what makes the V-cycle below a
    valid SPD MINRES preconditioner block.  ``lmax`` is a deterministic
    power-iteration estimate inflated by ``lmax_scale`` (the standard
    safety margin against underestimation).
    """

    def __init__(
        self,
        op: MatFreeScalarPoisson,
        degree: int = 3,
        lmax_scale: float = 1.1,
        lmin_ratio: float = 8.0,
        power_iters: int = 12,
        seed: int = 0,
    ):
        self.op = op
        self.degree = int(degree)
        self.lmax_scale = float(lmax_scale)
        self.lmin_ratio = float(lmin_ratio)
        self.dinv = 1.0 / op.diagonal()
        lam = self._estimate_lmax(power_iters, seed)
        self.lmax = lmax_scale * lam
        self.lmin = self.lmax / lmin_ratio

    def _estimate_lmax(self, iters: int, seed: int) -> float:
        """Power iteration on ``D^{-1} A`` (fixed seed: deterministic)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(self.op.n)
        x /= np.linalg.norm(x)
        lam = 1.0
        for _ in range(iters):  # lint: allow-loop (power iteration)
            y = self.dinv * self.op.apply(x)
            ny = np.linalg.norm(y)
            if ny == 0:
                return 1.0
            lam = ny
            x = y / ny
        return float(lam)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """One zero-initial-guess smoothing application ``x = S b``
        (the three-term Chebyshev recurrence, ``degree`` operator
        applies)."""
        theta = 0.5 * (self.lmax + self.lmin)
        delta = 0.5 * (self.lmax - self.lmin)
        sigma = theta / delta
        rho_old = 1.0 / sigma
        d = (self.dinv * b) / theta
        x = d
        r = b
        for _ in range(self.degree - 1):  # lint: allow-loop (poly degree)
            r = r - self.op.apply(d)
            rho = 1.0 / (2.0 * sigma - rho_old)
            d = (rho * rho_old) * d + (2.0 * rho / delta) * (self.dinv * r)
            x = x + d
            rho_old = rho
        return x


# -- V-cycle --------------------------------------------------------------------


@dataclass
class GMGLevel:
    """One grid level of a component hierarchy: the matrix-free operator,
    its Chebyshev smoother (``None`` on the coarsest level), and the
    Dirichlet-masked prolongation from this level up to the next finer
    one with its transpose, the restriction, stored as CSR (both ``None``
    on the finest level)."""

    op: MatFreeScalarPoisson
    smoother: ChebyshevSmoother | None
    P: sp.csr_matrix | None
    R: sp.csr_matrix | None = None


class GeometricMultigrid:
    """Matrix-free V-cycle over one component's :class:`GMGLevel` stack.

    Cycle structure (pre-smooth, coarse-grid correction, post-smooth with
    the same symmetric smoother ``S``) makes one zero-initial-guess cycle
    the operator ``2S - SAS + (I - SA) C (I - AS)`` — symmetric, and
    positive definite while the smoothed spectrum stays below 2 (the
    Chebyshev safety margin guarantees it) — so it is usable directly as
    a MINRES preconditioner block, like one AMG V-cycle.
    """

    def __init__(self, levels: list):
        self.levels = levels
        nc = levels[-1].op.n
        # dense coarsest solve, built matrix-free by applying the coarse
        # operator to the identity (pinv tolerates semi-definiteness)
        Ac = levels[-1].op.apply(np.eye(nc, dtype=np.float64))
        Ac = 0.5 * (Ac + Ac.T)
        self._coarse_inv = np.linalg.pinv(Ac, hermitian=True)

    @property
    def n_levels(self) -> int:
        """Number of grid levels (including the dense coarsest one)."""
        return len(self.levels)

    def grid_sizes(self) -> list:
        """Independent-dof count per level, finest first."""
        return [lvl.op.n for lvl in self.levels]

    @property
    def operator_complexity(self) -> float:
        """Total dofs over all levels / fine dofs — the grid-complexity
        analogue of AMG's nnz-based operator complexity (there is no nnz
        to count: nothing is assembled)."""
        fine = self.levels[0].op.n
        return sum(lvl.op.n for lvl in self.levels) / max(fine, 1)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        if k == len(self.levels) - 1:
            return self._coarse_inv @ b
        lvl = self.levels[k]
        with obs.phase(f"stokes/gmg/level{k}"):
            x = lvl.smoother.apply(b)
            r = b - lvl.op.apply(x)
        coarse = self.levels[k + 1]
        xc = self._cycle(k + 1, coarse.R @ r)
        with obs.phase(f"stokes/gmg/level{k}"):
            x = x + coarse.P @ xc
            x = x + lvl.smoother.apply(b - lvl.op.apply(x))
        return x

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle with zero initial guess: an SPD approximation of
        ``A^{-1}`` suitable as a MINRES preconditioner block."""
        obs.counter("gmg_vcycles")
        return self._cycle(0, b)


# -- the Stokes block preconditioner --------------------------------------------


class GMGStokesPreconditioner:
    """Drop-in alternative to
    :class:`repro.solvers.blockprec.StokesBlockPreconditioner`:
    ``P = diag(Atilde, Stilde)`` with ``Atilde`` applied as one geometric
    multigrid V-cycle per velocity component instead of one AMG V-cycle —
    zero sparse assembly at any level.

    Setup derives the grid hierarchy from the mesh's own octree
    (:func:`mesh_hierarchy`, cached per mesh so an unchanged mesh pays
    only the per-viscosity re-weighting), averages the element viscosity
    onto each level, and builds per-component Dirichlet-masked operators,
    Chebyshev smoothers and transfers.  ``Stilde`` is the same
    inverse-viscosity-weighted lumped pressure mass as the AMG path
    (computed matrix-free in tensor mode).
    """

    def __init__(
        self,
        stokes: StokesSystem,
        degree: int = 3,
        max_coarse: int = 80,
        lmax_scale: float = 1.1,
        lmin_ratio: float = 8.0,
    ):
        self.stokes = stokes
        mesh = stokes.mesh
        self.n = mesh.n_independent
        with obs.phase("prec_setup"):
            with obs.phase("gmg_setup"):
                hier = mesh_hierarchy(mesh, max_coarse=max_coarse)
                etas = coarse_viscosities(hier, stokes.viscosity)
                prolongs = [
                    prolongation(hier.meshes[i], hier.meshes[i + 1])
                    for i in range(len(hier.meshes) - 1)
                ]
                self.hierarchy = hier
                self.gmg = [
                    self._component_cycle(
                        hier, etas, prolongs, stokes.bc_kind, a,
                        degree, lmax_scale, lmin_ratio,
                    )
                    for a in range(3)
                ]
            self.schur_diag = stokes.schur_diagonal()
        if np.any(self.schur_diag <= 0):
            raise AssertionError("Schur diagonal must be positive")
        self.n_vcycles = 0

    @staticmethod
    def _component_cycle(hier, etas, prolongs, bc_kind, a, degree, lmax_scale, lmin_ratio):
        """The :class:`GeometricMultigrid` stack of velocity component
        ``a``: per-level masked operators + smoothers, and the transfer
        operators with this component's Dirichlet masks folded in."""
        levels = []
        for i, m in enumerate(hier.meshes):  # lint: allow-loop (level count)
            bc_dofs = component_bc_dofs(m, bc_kind, a)
            op = MatFreeScalarPoisson(m, etas[i], bc_dofs)
            smoother = (
                None
                if i == len(hier.meshes) - 1
                else ChebyshevSmoother(
                    op, degree=degree, lmax_scale=lmax_scale, lmin_ratio=lmin_ratio
                )
            )
            P = R = None
            if i > 0:
                fine_mask = levels[i - 1].op.mask
                P = sp.csr_matrix(
                    sp.diags(fine_mask) @ prolongs[i - 1] @ sp.diags(op.mask)
                )
                P.eliminate_zeros()
                R = sp.csr_matrix(P.T)  # once here, not per V-cycle level
            levels.append(GMGLevel(op=op, smoother=smoother, P=P, R=R))
        return GeometricMultigrid(levels)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``z = P^{-1} r``: three GMG V-cycles plus a diagonal scaling."""
        n = self.n
        z = np.empty_like(r)
        for a in range(3):
            z[a * n : (a + 1) * n] = self.gmg[a].vcycle(r[a * n : (a + 1) * n])
            self.n_vcycles += 1
        z[3 * n :] = r[3 * n :] / self.schur_diag
        return z

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Alias for :meth:`apply` (callable-preconditioner protocol)."""
        return self.apply(r)

    def refresh_schur(self, stokes: StokesSystem) -> None:
        """Rebind to a new system on the same mesh, refreshing only the
        cheap diagonal Schur approximation (the lagged-reuse path)."""
        self.stokes = stokes
        self.schur_diag = stokes.schur_diagonal()
        if np.any(self.schur_diag <= 0):
            raise AssertionError("Schur diagonal must be positive")

    def update_viscosity(self, viscosity: np.ndarray) -> None:
        """Re-weight every level for a new fine-grid viscosity without
        touching any cached structure: per-level averaging, coefficient
        rebinds, smoother bound re-estimates and the coarse dense solve —
        all O(dofs), no assembly."""
        etas = coarse_viscosities(self.hierarchy, np.asarray(viscosity, np.float64))
        for g in self.gmg:
            for i, lvl in enumerate(g.levels):  # lint: allow-loop (level count)
                lvl.op.update_viscosity(etas[i])
                if lvl.smoother is not None:
                    s = lvl.smoother
                    lvl.smoother = ChebyshevSmoother(
                        lvl.op,
                        degree=s.degree,
                        lmax_scale=s.lmax_scale,
                        lmin_ratio=s.lmin_ratio,
                    )
            nc = g.levels[-1].op.n
            Ac = g.levels[-1].op.apply(np.eye(nc, dtype=np.float64))
            Ac = 0.5 * (Ac + Ac.T)
            g._coarse_inv = np.linalg.pinv(Ac, hermitian=True)

    @property
    def operator_complexity(self) -> float:
        """Mean grid complexity over the three component hierarchies."""
        return float(np.mean([g.operator_complexity for g in self.gmg]))

    def grid_sizes(self) -> list:
        """Independent-dof count per level of component 0 (the three
        components share the hierarchy; only Dirichlet masks differ)."""
        return self.gmg[0].grid_sizes()

    def frozen_state(self) -> list:
        """Arrays fingerprinted by the lagged-preconditioner sanitizer:
        per-level coefficients, diagonals and transfers, plus the coarse
        dense inverses — in-place mutation of any of these would break
        the lagging premise silently."""
        out = []
        for g in self.gmg:
            for lvl in g.levels:
                out.append([lvl.op.cb, lvl.op.diagonal(), lvl.P, lvl.R])
            out.append(g._coarse_inv)
        return out
