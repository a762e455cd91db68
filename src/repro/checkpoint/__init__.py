"""Rank-sharded checkpoint/restart for the ALPS/RHEA time loops.

The petascale runs of the paper (Sec. V: up to 62,976 Ranger cores)
presume a checkpoint/restart discipline; this package supplies the
repro's version of it.  State is saved as one binary shard per rank plus
a JSON manifest with blake2b integrity digests (:mod:`.format`), written
atomically and pruned to the newest K.  Because ranks own contiguous
Morton segments, restore (:mod:`.restore`) concatenates shards in rank
order and re-runs the SFC partition — so a run saved on N ranks resumes
on M ranks with a bitwise-identical octree and fields.  :mod:`.driver`
wires periodic snapshots into ``ParAmrPipeline.run_cycles`` and
``MantleConvection.run``; the fault-injection hook in
:mod:`repro.parallel.simcomm` lets tests kill a chosen rank at a chosen
step to exercise the crash path end to end.
"""

from .driver import Checkpointer
from .format import (
    FORMAT_VERSION,
    CheckpointError,
    Manifest,
    ManifestError,
    ShardIntegrityError,
    latest_checkpoint,
    list_checkpoints,
)
from .restore import (
    load_checkpoint,
    resolve_checkpoint,
    restore_convection,
    restore_pipeline,
    sfc_segment,
)
from .snapshot import save_convection, save_pipeline

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "ManifestError",
    "ShardIntegrityError",
    "Manifest",
    "Checkpointer",
    "save_pipeline",
    "save_convection",
    "restore_pipeline",
    "restore_convection",
    "load_checkpoint",
    "resolve_checkpoint",
    "sfc_segment",
    "list_checkpoints",
    "latest_checkpoint",
]
