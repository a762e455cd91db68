"""State capture: driver objects -> rank-sharded checkpoint directories.

Two snapshot flavors, one per time loop:

- :func:`save_pipeline` — collective over the SPMD world of a
  :class:`~repro.amr.pardriver.ParAmrPipeline`.  Each rank shards its
  owned Morton segment of the octree plus the temperature field stored
  as *element-corner values* ``(n_owned, 8)``: node values replicate
  bitwise across the elements sharing them, so scattering corners back
  after an N-rank to M-rank reshard reproduces the node vector exactly.
- :func:`save_convection` — serial :class:`MantleConvection` state in a
  single shard: octree, temperature/velocity/viscosity fields, step and
  time counters, per-cycle diagnostics, and (optionally) the PR-1
  warm-start solver state (previous pressure + the lagged
  preconditioner's reference viscosity, from which the GMG levels are
  rebuilt bitwise on restore).

Both write atomically (stage into ``<dir>.tmp``, rename once the
manifest is down) and prune old checkpoints to the newest ``keep``.
Under ``REPRO_SANITIZE=1`` each shard's in-memory arrays are fingerprinted
with :func:`repro.parallel.sanitize.freeze` and the token is stored in the
manifest for restore-time re-validation.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict

from .. import obs
from ..parallel.sanitize import maybe_freeze
from .format import (
    Manifest,
    ShardInfo,
    apply_retention,
    shard_name,
    step_dirname,
    write_manifest,
    write_shard,
)

__all__ = ["save_pipeline", "save_convection", "pipeline_shard_arrays", "convection_arrays"]


def _frozen_token(arrays: dict) -> str | None:
    """Sanitize fingerprint over the shard's arrays in layout order."""
    return maybe_freeze([arrays[k] for k in sorted(arrays)])


def pipeline_shard_arrays(pipe) -> dict:
    """This rank's shard: owned octants + element-corner field values."""
    mesh = pipe.pm.mesh
    owned = pipe.pm.owned_elements
    local = pipe.pt.octs
    u_full = mesh.expand(pipe.T)
    return {
        "octants/x": local.x,
        "octants/y": local.y,
        "octants/z": local.z,
        "octants/level": local.level,
        "field/T": u_full[mesh.element_nodes[owned]],
    }


def save_pipeline(pipe, root: str, keep: int | None = 2) -> str:
    """Collective snapshot of a ParAmrPipeline; returns the final path.

    Every rank must call this (it gathers shard metadata and barriers);
    rank 0 alone touches the manifest, the atomic rename, and retention.
    Recorded under the ``checkpoint/save`` phase when a
    :mod:`repro.obs` timer is bound.

    Example::

        path = save_pipeline(pipe, "ckpts")   # -> "ckpts/step_000016"
    """
    with obs.phase("checkpoint/save"):
        return _save_pipeline_impl(pipe, root, keep)


def _save_pipeline_impl(pipe, root: str, keep: int | None) -> str:
    comm = pipe.comm
    step = pipe.steps_taken
    final_dir = os.path.join(root, step_dirname(step))
    tmp_dir = final_dir + ".tmp"
    n_global = pipe.pt.global_count()
    if comm.rank == 0:
        os.makedirs(root, exist_ok=True)
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)
    comm.barrier()

    arrays = pipeline_shard_arrays(pipe)
    info = write_shard(
        os.path.join(tmp_dir, shard_name(comm.rank)),
        arrays,
        frozen=_frozen_token(arrays),
    )
    infos = comm.gather(info.to_json(), root=0)

    if comm.rank == 0:
        manifest = Manifest(
            nranks=comm.size,
            step=step,
            time=pipe.sim_time,
            meta={
                "kind": "par_amr",
                "n_global": n_global,
                "steps_taken": pipe.steps_taken,
                "cycles_done": pipe.cycles_done,
                "min_level": pipe.min_level,
                "max_level": pipe.max_level,
                "connectivity": pipe.connectivity,
                "fields": ["T"],
            },
            shards=[ShardInfo.from_json(d) for d in infos],
        )
        write_manifest(tmp_dir, manifest)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)
        os.replace(tmp_dir, final_dir)
        apply_retention(root, keep)
    comm.barrier()
    return final_dir


def convection_arrays(sim) -> dict:
    """The single-shard array set of a MantleConvection instance, with
    its solver warm-start state (the previous pressure on the same mesh
    and the lagged preconditioner's viscosity reference)."""
    mesh = sim.mesh
    leaves = mesh.leaves
    arrays = {
        "octants/x": leaves.x,
        "octants/y": leaves.y,
        "octants/z": leaves.z,
        "octants/level": leaves.level,
        "field/T": sim.T,
        "field/u": sim.u,
        "state/eta_elem": sim.eta_elem,
        "state/edot_elem": sim.edot_elem,
    }
    if sim._p_prev is not None and sim._p_prev_mesh is mesh:
        arrays["solver/p_prev"] = sim._p_prev
    if sim._prec_lag._eta_ref is not None:
        arrays["solver/prec_eta_ref"] = sim._prec_lag._eta_ref
    return arrays


def recorded_config(cfg) -> dict:
    """The :class:`~repro.rhea.convection.RheaConfig` fields a convection
    checkpoint records and its restore checks (viscosity laws are code,
    not data, and are not recorded)."""
    return {
        "Ra": cfg.Ra,
        "domain": [float(d) for d in cfg.domain],
        "adapt_every": cfg.adapt_every,
        "velocity_bc": cfg.velocity_bc,
    }


def save_convection(
    sim, root: str, keep: int | None = 2, extra_meta: dict | None = None,
) -> str:
    """Serial snapshot of a MantleConvection run; returns the final path.

    ``extra_meta`` (JSON-serializable) is stored verbatim under
    ``meta["extra"]`` in the manifest — the fleet service stamps each
    per-job snapshot namespace with its job id / tenant there, and
    verifies the stamp on resume to guard against cross-job restores.
    Recorded under the ``checkpoint/save`` phase when a
    :mod:`repro.obs` timer is bound.

    Example::

        path = save_convection(sim, "ckpts")
    """
    with obs.phase("checkpoint/save"):
        return _save_convection_impl(sim, root, keep, extra_meta)


def _save_convection_impl(
    sim, root: str, keep: int | None, extra_meta: dict | None
) -> str:
    cfg = sim.config
    step = sim.step_count
    final_dir = os.path.join(root, step_dirname(step))
    tmp_dir = final_dir + ".tmp"
    os.makedirs(root, exist_ok=True)
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)

    arrays = convection_arrays(sim)
    info = write_shard(
        os.path.join(tmp_dir, shard_name(0)),
        arrays,
        frozen=_frozen_token(arrays),
    )
    manifest = Manifest(
        nranks=1,
        step=step,
        time=sim.sim_time,
        meta={
            "kind": "convection",
            "n_elements": sim.mesh.n_elements,
            "history": [asdict(d) for d in sim.history],
            "config": recorded_config(cfg),
            "fields": ["T", "u"],
            **({"extra": extra_meta} if extra_meta is not None else {}),
        },
        shards=[info],
    )
    write_manifest(tmp_dir, manifest)
    if os.path.isdir(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)
    apply_retention(root, keep)
    return final_dir
