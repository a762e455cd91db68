"""The Figure-4 adaptation pipeline (serial driver).

One adaptation step chains, in order: MARKELEMENTS -> COARSENTREE ->
REFINETREE -> BALANCETREE -> EXTRACTMESH -> INTERPOLATEFIELDS, each in
its own :func:`repro.obs.phase` (``mark``, ``coarsen``, ``refine``,
``balance``, ``extract_mesh``, ``interpolate``), and records the element
bookkeeping (refined / coarsened / balance-added / unchanged) that
Figure 5 plots.  Under the ``amr`` phase of
:meth:`repro.rhea.MantleConvection.run` the stages land at the paths the
SPMD pipeline records (``amr/mark``, ..., ``amr/interpolate``).

The serial driver operates on a :class:`~repro.mesh.Mesh` and is what the
RHEA application uses; the SPMD pipeline over distributed trees lives in
:mod:`repro.amr.pardriver`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..mesh import Mesh, extract_mesh
from ..mesh.fields import interpolate_fields
from ..octree import balance
from .mark import MarkResult, mark_elements, relocate_refine_marks

__all__ = ["AdaptReport", "adapt_mesh"]


@dataclass
class AdaptReport:
    """Bookkeeping of one adaptation step (Figure 5 quantities)."""

    n_before: int
    n_after: int
    n_refined: int          # elements replaced by children
    n_coarsened: int        # elements merged away (8 per family)
    n_balance_added: int    # leaves created by BALANCETREE
    n_unchanged: int
    mark: MarkResult


def adapt_mesh(
    mesh: Mesh,
    eta: np.ndarray,
    target: int,
    fields: dict | None = None,
    *,
    min_level: int = 0,
    max_level: int = 18,
    connectivity: str = "corner",
    **mark_kwargs,
) -> tuple[Mesh, dict, AdaptReport]:
    """Run one full adaptation step on a serial mesh.

    Parameters
    ----------
    mesh:
        Current mesh.
    eta:
        Per-element error indicator (length ``mesh.n_elements``).
    target:
        Desired element count after adaptation (MARKELEMENTS tolerance
        band applies).
    fields:
        Optional dict of full node vectors to transfer to the new mesh.

    Returns
    -------
    ``(new_mesh, new_fields, report)``.
    """
    tree = mesh.tree

    with obs.phase("mark"):
        mark = mark_elements(
            eta, tree.levels, target, min_level=min_level, max_level=max_level,
            **mark_kwargs,
        )

    # COARSENTREE: never coarsen a leaf that is also marked for refinement.
    with obs.phase("coarsen"):
        coarsen_mask = mark.coarsen & ~mark.refine
        tree_c, nfam = tree.coarsen(coarsen_mask)

    with obs.phase("refine"):
        refine_mask_c = relocate_refine_marks(tree.leaves, mark.refine, tree_c.leaves)
        tree_r = tree_c.refine(refine_mask_c)

    with obs.phase("balance"):
        bres = balance(tree_r, connectivity)

    with obs.phase("extract_mesh"):
        new_mesh = extract_mesh(bres.tree, mesh.domain)

    with obs.phase("interpolate"):
        new_fields = {}
        if fields:
            for k, v in fields.items():
                new_fields[k] = interpolate_fields(mesh, v, new_mesh)

    n_refined = int(mark.refine.sum())
    n_coarsened = 8 * nfam
    report = AdaptReport(
        n_before=len(tree),
        n_after=len(bres.tree),
        n_refined=n_refined,
        n_coarsened=n_coarsened,
        n_balance_added=bres.leaves_added,
        n_unchanged=len(tree) - n_refined - n_coarsened,
        mark=mark,
    )
    return new_mesh, new_fields, report
