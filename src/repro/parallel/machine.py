"""Performance model of a Ranger-class machine.

The paper's scalability results were measured on TACC's Ranger (62,976
cores of 2.3 GHz AMD Barcelona, InfiniBand fat tree).  We cannot time 62K
cores, so the benchmarks execute the real distributed algorithms on a
handful of simulated ranks (measuring exact operation and communication
counts through :class:`~repro.parallel.stats.CommStats`) and use this
alpha-beta machine model to price those counts at the paper's core counts.

The model is deliberately simple — latency ``alpha``, inverse bandwidth
``beta``, a sustained per-core flop rate, and textbook cost formulas for
the collectives (recursive doubling / tree algorithms, the same family MPI
implementations of the era used).  The paper's claims are about *shape*
(who scales, where overhead concentrates), which such a model preserves;
we never claim to reproduce Ranger's absolute seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stats import CommStats

__all__ = ["MachineModel", "RANGER"]


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta-gamma machine model.

    Parameters
    ----------
    alpha:
        Point-to-point message latency in seconds.
    beta:
        Inverse bandwidth in seconds per byte (per core share).
    flop_rate:
        Sustained floating point rate per core, flop/s.  The paper observed
        ~0.58 Gflop/s/core for the low-order FEM transport kernel and up to
        ~4.4 Gflop/s/core for high-order dense element kernels; pick the
        rate that matches the kernel being modeled.
    mem_rate:
        Sustained memory streaming rate per core, bytes/s (prices
        bandwidth-bound kernels like sparse matvec).
    """

    name: str = "ranger"
    alpha: float = 2.3e-6
    beta: float = 1.0e-9
    flop_rate: float = 0.58e9
    mem_rate: float = 1.2e9
    #: Sustained rate of the *matrix-based* element kernel of the Section
    #: VII study (``tests/figures/kernels.py`` prices it): large dense
    #: GEMMs run near peak (the paper reports up to ~4.4 Gflop/s/core for
    #: high-order dense element kernels on Ranger).
    flop_rate_dense: float = 4.4e9
    #: Sustained rate of the *tensor-product* (sum-factorized) element
    #: kernel: short per-axis contractions with little register reuse run
    #: an order of magnitude below dense peak.  With these two rates the
    #: matrix/tensor crossover sits at ``(p+1)^2 = dense/tensor = 10``,
    #: i.e. between p = 2 and p = 4 — the Section VII Ranger observation.
    flop_rate_tensor: float = 0.44e9
    #: Effective fan-out of the "alltoall" exchanges.  ALPS's alltoalls are
    #: sparse: the space-filling-curve partition gives each rank O(1)
    #: spatial neighbors ("neighboring elements tend to reside on the same
    #: core"), and repartitioning ships contiguous curve segments to a few
    #: consecutive ranks.  26 bounds the spatial neighborhood.
    alltoall_fanout: int = 26

    # -- primitive costs -----------------------------------------------------

    def t_flops(self, nflops: float) -> float:
        """Time to execute ``nflops`` floating point operations on one core."""
        return nflops / self.flop_rate

    def t_stream(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` through one core's memory system."""
        return nbytes / self.mem_rate

    def t_p2p(self, nbytes: float, nmessages: int = 1) -> float:
        """Time for point-to-point traffic from one rank's perspective."""
        return nmessages * self.alpha + nbytes * self.beta

    def t_collective(self, name: str, nbytes: float, p: int) -> float:
        """Modeled time of one collective on ``p`` cores.

        ``nbytes`` is the payload contributed per rank (what CommStats
        records).  Formulas follow the standard tree / recursive-doubling
        algorithms:

        - barrier, allreduce, bcast, exscan: ``ceil(log2 p)`` rounds
        - allgather, gather: log-latency plus ``p * nbytes`` volume
          (recursive doubling moves the full gathered vector)
        - alltoall: sparse neighbor exchange — ``min(p-1, fanout)``
          messages carrying the rank's full contributed payload (see
          ``alltoall_fanout``)
        """
        if p <= 1:
            return 0.0
        lg = math.ceil(math.log2(p))
        if name in ("barrier",):
            return lg * self.alpha
        if name in ("allreduce", "bcast", "exscan"):
            return lg * (self.alpha + nbytes * self.beta)
        if name in ("allgather", "gather"):
            return lg * self.alpha + p * nbytes * self.beta
        if name == "alltoall":
            fanout = min(p - 1, self.alltoall_fanout)
            return fanout * self.alpha + nbytes * self.beta
        raise ValueError(f"unknown collective {name!r}")

    # -- pricing a CommStats tally --------------------------------------------

    def t_comm(self, stats: CommStats, p: int) -> float:
        """Modeled communication time of one rank's tally at ``p`` cores.

        Collective payloads recorded at the executed rank count are priced
        per call at the modeled core count; point-to-point traffic is priced
        directly.  This assumes the per-rank payloads observed at the
        executed scale are representative of the modeled scale, which holds
        under isogranular (weak) scaling where per-rank work is constant.
        """
        t = self.t_p2p(stats.p2p_bytes, stats.p2p_messages)
        for name, calls in stats.collective_calls.items():
            if calls == 0:
                continue
            per_call = stats.collective_bytes.get(name, 0) / calls
            t += calls * self.t_collective(name, per_call, p)
        return t

    def t_total(self, stats: CommStats, p: int) -> float:
        """Modeled compute + communication time for one rank's tally."""
        return self.t_flops(stats.flops) + self.t_comm(stats, p)


#: Default Ranger-calibrated model (low-order FEM sustained rate).
RANGER = MachineModel()
