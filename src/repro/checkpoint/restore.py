"""Restore: checkpoint directories -> reconstructed driver objects.

Reading is rank-count agnostic.  Shards are concatenated in rank order,
which — because every writing rank owned a contiguous Morton segment —
yields the *global* Morton-ordered octant and field arrays.  Restoring
onto ``M`` ranks then just re-runs the equal-count SFC split
(``PARTITIONTREE``'s own :func:`~repro.octree.partree.sfc_segment`) over
the concatenated arrays, rebuilds each rank's mesh with the parallel
EXTRACTMESH, and
scatters the element-corner field values back onto mesh nodes.  Corner
values are bitwise replicas across sharing elements, so the rebuilt node
vector is exactly the saved one regardless of N vs. M.

Every shard's blake2b digest is verified on read, unconditionally; a
mismatch raises :class:`~repro.checkpoint.format.ShardIntegrityError`
naming the shard.  Under ``REPRO_SANITIZE=1`` the decoded arrays are
additionally re-fingerprinted against the ``frozen`` token the writer
stored in the manifest.
"""

from __future__ import annotations

import os

import numpy as np

from .. import obs
from ..octree.partree import sfc_segment
from ..parallel.sanitize import freeze, sanitize_enabled
from .format import (
    CheckpointError,
    Manifest,
    ShardIntegrityError,
    latest_checkpoint,
    read_manifest,
    read_shard,
)
from .snapshot import recorded_config

__all__ = [
    "resolve_checkpoint",
    "load_checkpoint",
    "sfc_segment",
    "restore_pipeline",
    "restore_convection",
]


def resolve_checkpoint(path: str) -> str:
    """Accept either a checkpoint directory or a root of ``step_*`` dirs
    (then the newest complete checkpoint wins)."""
    if os.path.isfile(os.path.join(path, "manifest.json")):
        return path
    latest = latest_checkpoint(path)
    if latest is None:
        raise CheckpointError(f"no checkpoint found under {path!r}")
    return latest


def load_checkpoint(path: str) -> tuple[Manifest, dict]:
    """Read a checkpoint into global Morton-ordered arrays.

    Returns ``(manifest, arrays)`` with each named array concatenated
    over shards in rank order.  Digests are always verified; sanitize
    mode re-validates the decoded arrays against the writer's freeze
    token as well.
    """
    path = resolve_checkpoint(path)
    manifest = read_manifest(path)
    parts: dict[str, list] = {}
    for info in manifest.shards:
        arrays = read_shard(path, info)
        if sanitize_enabled() and info.frozen is not None:
            token = freeze([arrays[k] for k in sorted(arrays)])
            if token != info.frozen:
                raise ShardIntegrityError(
                    info.file, os.path.join(path, info.file), info.frozen, token
                )
        for name in sorted(arrays):
            parts.setdefault(name, []).append(arrays[name])
    out = {
        name: (chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0))
        for name, chunks in sorted(parts.items())
    }
    return manifest, out


def restore_pipeline(comm, path: str, workload=None):
    """Rebuild a :class:`~repro.amr.pardriver.ParAmrPipeline` on the
    calling SPMD world (any rank count) from a ``par_amr`` checkpoint.

    Collective: every rank reads all shards (the in-process analogue of
    a parallel filesystem) and keeps its SFC segment.  Recorded under
    the ``checkpoint/restore`` phase when a :mod:`repro.obs` timer is
    bound.
    """
    with obs.phase("checkpoint/restore"):
        return _restore_pipeline_impl(comm, path, workload)


def _restore_pipeline_impl(comm, path: str, workload):
    from ..amr.pardriver import ParAmrPipeline
    from ..forest import ParForest, unit_cube
    from ..octree import OctantArray, morton_encode

    path = resolve_checkpoint(path)
    manifest, g = load_checkpoint(path)
    meta = manifest.meta
    if meta.get("kind") != "par_amr":
        raise CheckpointError(
            f"checkpoint at {path!r} holds {meta.get('kind')!r} state, "
            "not a ParAmrPipeline snapshot"
        )
    x, y, z = g["octants/x"], g["octants/y"], g["octants/z"]
    lv = g["octants/level"]
    lo, hi = sfc_segment(len(lv), comm.size, comm.rank)
    local = OctantArray(x[lo:hi], y[lo:hi], z[lo:hi], lv[lo:hi])
    pipe = ParAmrPipeline(
        comm,
        workload=workload,
        min_level=meta["min_level"],
        max_level=meta["max_level"],
        connectivity=meta["connectivity"],
        tree=ParForest(comm, unit_cube(), np.zeros(hi - lo, dtype=np.int64), local),
    )

    # scatter element-corner temperature back onto this rank's union mesh
    mesh = pipe.pm.mesh
    gkeys = morton_encode(x, y, z)
    idx = np.searchsorted(gkeys, mesh.leaves.keys())
    if not np.array_equal(gkeys[idx], mesh.leaves.keys()):
        raise CheckpointError(
            "restored mesh elements not found in checkpoint octants — "
            "shards are inconsistent with the manifest"
        )
    u_full = np.zeros(mesh.n_nodes)
    u_full[mesh.element_nodes.ravel()] = g["field/T"][idx].ravel()
    pipe.T = u_full[mesh.indep_nodes]

    pipe.steps_taken = int(meta["steps_taken"])
    pipe.cycles_done = int(meta.get("cycles_done", 0))
    pipe.sim_time = float(manifest.time)
    return pipe


def restore_convection(path: str, config=None, include_solver_state: bool = True):
    """Rebuild a :class:`~repro.rhea.convection.MantleConvection` from a
    ``convection`` checkpoint.

    ``config`` (``RheaConfig()`` when ``None``) must match the run that
    wrote the checkpoint; viscosity laws are code, not data, so only the
    fields the manifest records (``Ra``, ``domain``, ``adapt_every``,
    ``velocity_bc``) are checked, and a mismatch raises
    :class:`~repro.checkpoint.format.CheckpointError` naming every
    differing field.  Fields, counters,
    diagnostics history, and — when present and requested — the
    warm-start solver state are restored.  The lagged GMG levels are
    re-assembled from the saved reference viscosity, bitwise the levels
    the uninterrupted run carried, so the next cycle makes the same
    preconditioner builds, reuses and MINRES iterations.
    Recorded under the ``checkpoint/restore`` phase when a
    :mod:`repro.obs` timer is bound.
    """
    with obs.phase("checkpoint/restore"):
        return _restore_convection_impl(path, config, include_solver_state)


def _restore_convection_impl(path: str, config, include_solver_state: bool):
    from ..rhea.convection import MantleConvection, RheaConfig, StepDiagnostics
    from ..octree import LinearOctree, OctantArray

    path = resolve_checkpoint(path)
    manifest, g = load_checkpoint(path)
    meta = manifest.meta
    if meta.get("kind") != "convection":
        raise CheckpointError(
            f"checkpoint at {path!r} holds {meta.get('kind')!r} state, "
            "not a MantleConvection snapshot"
        )
    cfg = config if config is not None else RheaConfig()
    saved, given = meta.get("config", {}), recorded_config(cfg)
    differ = [
        f"{k} (saved {saved[k]!r}, given {given[k]!r})"
        for k in sorted(given)
        if k in saved and saved[k] != given[k]
    ]
    if differ:
        raise CheckpointError(
            f"checkpoint at {path!r} was written under another config: " + "; ".join(differ)
        )
    leaves = OctantArray(
        g["octants/x"], g["octants/y"], g["octants/z"], g["octants/level"]
    )
    tree = LinearOctree(leaves, presorted=True)
    sim = MantleConvection(config=cfg, tree=tree)
    sim.T = g["field/T"].copy()
    sim.u = g["field/u"].copy()
    sim.eta_elem = g["state/eta_elem"].copy()
    sim.edot_elem = g["state/edot_elem"].copy()
    sim.sim_time = float(manifest.time)
    sim.step_count = int(manifest.step)
    history = meta.get("history", [])
    for d in history:
        # version-1 histories written before the per-cycle wall-time dict
        # was retired still carry its ``timings`` key; phase times live in obs
        d.pop("timings", None)
    sim.history = [StepDiagnostics(**d) for d in history]

    if include_solver_state:
        if "solver/p_prev" in g:
            sim._p_prev = g["solver/p_prev"].copy()
            sim._p_prev_mesh = sim.mesh
        if "solver/prec_eta_ref" in g:
            from ..fem import StokesSystem

            eta_ref = g["solver/prec_eta_ref"].copy()
            # no body force: the system only warms the lagged
            # preconditioner
            sim._prec_lag.get(
                StokesSystem(sim.mesh, eta_ref, bc=sim.config.velocity_bc)
            )
    return sim
