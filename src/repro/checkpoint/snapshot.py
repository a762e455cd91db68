"""State capture: driver objects -> rank-sharded checkpoint directories.

One collective writer, :func:`_write_checkpoint`, and two array sets,
one per time loop:

- :func:`pipeline_shard_arrays` — each rank of a
  :class:`~repro.amr.pardriver.ParAmrPipeline` shards its owned Morton
  segment of the octree plus the temperature field stored as
  *element-corner values* ``(n_owned, 8)``: node values replicate
  bitwise across the elements sharing them, so scattering corners back
  after an N-rank to M-rank reshard reproduces the node vector exactly.
- :func:`convection_arrays` — the serial :class:`MantleConvection`
  state: octree, temperature/velocity/viscosity fields and the
  warm-start solver state (previous pressure + the lagged
  preconditioner's reference viscosity, from which the GMG levels are
  rebuilt bitwise on restore).  Step/time counters, per-cycle
  diagnostics and the recorded config go into the manifest.

:func:`save_pipeline` writes over the pipeline's SPMD world;
:func:`save_convection` is the one-rank case of the same write.  The
write is atomic (stage into ``<dir>.tmp``, rename once the manifest is
down) and prunes old checkpoints to the newest ``keep``.  Under
``REPRO_SANITIZE=1`` each shard's in-memory arrays are fingerprinted
with :func:`repro.parallel.sanitize.freeze` and the token is stored in
the manifest for restore-time re-validation.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict

from .. import obs
from ..parallel import SimComm, SimWorld
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


def _write_checkpoint(
    comm, root: str, step: int, time: float, arrays: dict, meta: dict, keep: int | None
) -> str:
    """Collective write of one checkpoint; returns the final path.

    Rank 0 stages ``<root>/step_<step>.tmp``, every rank writes its
    shard of ``arrays``, and rank 0 gathers the shard records, writes
    the manifest (``meta`` is rank 0's), renames the directory into
    place and prunes to the newest ``keep``."""
    final_dir = os.path.join(root, step_dirname(step))
    tmp_dir = final_dir + ".tmp"
    if comm.rank == 0:
        os.makedirs(root, exist_ok=True)
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)
    comm.barrier()

    info = write_shard(
        os.path.join(tmp_dir, shard_name(comm.rank)),
        arrays,
        frozen=maybe_freeze([arrays[k] for k in sorted(arrays)]),
    )
    infos = comm.gather(info.to_json(), root=0)

    if comm.rank == 0:
        manifest = Manifest(
            nranks=comm.size,
            step=step,
            time=time,
            meta=meta,
            shards=[ShardInfo.from_json(d) for d in infos],
        )
        write_manifest(tmp_dir, manifest)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)
        os.replace(tmp_dir, final_dir)
        apply_retention(root, keep)
    comm.barrier()
    return final_dir


def _octant_arrays(octs) -> dict:
    """The four ``octants/*`` arrays of a Morton-ordered leaf set."""
    return {f"octants/{k}": getattr(octs, k) for k in ("x", "y", "z", "level")}


def pipeline_shard_arrays(pipe) -> dict:
    """This rank's shard: owned octants + element-corner field values."""
    mesh = pipe.pm.mesh
    u_full = mesh.expand(pipe.T)
    return {
        **_octant_arrays(pipe.pt.octs),
        "field/T": u_full[mesh.element_nodes[pipe.pm.owned_elements]],
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
        meta = {
            "kind": "par_amr",
            "n_global": pipe.pt.global_count(),
            "steps_taken": pipe.steps_taken,
            "cycles_done": pipe.cycles_done,
            "min_level": pipe.min_level,
            "max_level": pipe.max_level,
            "connectivity": "corner",
            "fields": ["T"],
        }
        return _write_checkpoint(pipe.comm, root, pipe.steps_taken, pipe.sim_time,
                                 pipeline_shard_arrays(pipe), meta, keep)


def convection_arrays(sim) -> dict:
    """The single-shard array set of a MantleConvection instance, with
    its solver warm-start state (the previous pressure on the same mesh
    and the lagged preconditioner's viscosity reference)."""
    mesh = sim.mesh
    arrays = {
        **_octant_arrays(mesh.leaves),
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

    The one-rank case of the collective write.  ``extra_meta``
    (JSON-serializable) is stored verbatim under
    ``meta["extra"]`` in the manifest — the fleet service stamps each
    per-job snapshot namespace with its job id / tenant there, and
    verifies the stamp on resume to guard against cross-job restores.
    Recorded under the ``checkpoint/save`` phase when a
    :mod:`repro.obs` timer is bound.

    Example::

        path = save_convection(sim, "ckpts")
    """
    with obs.phase("checkpoint/save"):
        meta = {
            "kind": "convection",
            "n_elements": sim.mesh.n_elements,
            "history": [asdict(d) for d in sim.history],
            "config": recorded_config(sim.config),
            "fields": ["T", "u"],
            **({"extra": extra_meta} if extra_meta is not None else {}),
        }
        return _write_checkpoint(SimComm(SimWorld(1), 0), root, sim.step_count,
                                 sim.sim_time, convection_arrays(sim), meta, keep)
