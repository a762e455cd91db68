"""Simulated-MPI SPMD substrate (substitute for Ranger + MPI).

Public API:

- :func:`run_spmd` / :func:`run_spmd_with_comms` — execute an SPMD kernel
  on ``P`` ranks, each simulated as a thread of this process.
- :class:`SimComm` — the MPI-like communicator handed to each rank.
- :class:`CommStats` — per-rank communication/flop accounting.
- :class:`MachineModel` / :data:`RANGER` — alpha-beta performance model
  used to price measured counts at paper-scale core counts.
"""

from .machine import RANGER, MachineModel
from .simcomm import (
    InjectedFault,
    SimComm,
    SimWorld,
    SpmdAbort,
    arm_fault,
    check_fault,
    disarm_fault,
    fault_injection,
    run_spmd,
    run_spmd_with_comms,
)
from .stats import CommStats, merge_stats, payload_nbytes

__all__ = [
    "RANGER",
    "MachineModel",
    "SimComm",
    "SimWorld",
    "SpmdAbort",
    "InjectedFault",
    "arm_fault",
    "disarm_fault",
    "fault_injection",
    "check_fault",
    "run_spmd",
    "run_spmd_with_comms",
    "CommStats",
    "merge_stats",
    "payload_nbytes",
]
