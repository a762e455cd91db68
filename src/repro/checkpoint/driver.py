"""Periodic-checkpoint policy wired into the time loops.

A :class:`Checkpointer` bundles the where (directory), the when (every N
cycles), and the how much (retention); ``run_cycles``/``run`` accept one
via their ``checkpoint=`` argument.
"""

from __future__ import annotations

from .snapshot import save_convection, save_pipeline

__all__ = ["Checkpointer"]


class Checkpointer:
    """Stateful policy object: decides when a cycle ends in a snapshot.

    ``last_path`` holds the most recent checkpoint directory written.
    """

    def __init__(
        self,
        directory: str,
        every: int = 1,
        keep: int | None = 2,
    ):
        self.directory = directory
        self.every = int(every)
        self.keep = keep
        self.last_path: str | None = None
        self.n_saved = 0

    def due(self, cycles_done: int) -> bool:
        """True when ``cycles_done`` completed cycles call for a
        snapshot (every ``self.every``-th cycle; never at cycle 0).

        Example::

            Checkpointer("ckpt", every=3).due(6)   # True
        """
        return self.every > 0 and cycles_done > 0 and cycles_done % self.every == 0

    def save_pipeline(self, pipe) -> str:
        """Snapshot a :class:`~repro.amr.ParAmrPipeline` (collective —
        every rank must call it) and return the step directory path."""
        self.last_path = save_pipeline(pipe, self.directory, keep=self.keep)
        self.n_saved += 1
        return self.last_path

    def save_convection(self, sim) -> str:
        """Snapshot a serial :class:`~repro.rhea.MantleConvection`
        (with its solver warm-start state) and return the step directory
        path."""
        self.last_path = save_convection(sim, self.directory, keep=self.keep)
        self.n_saved += 1
        return self.last_path
