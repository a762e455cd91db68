"""Communication and computation accounting for simulated SPMD runs.

Every :class:`~repro.parallel.simcomm.SimComm` owns a :class:`CommStats`
instance that records how many messages and bytes each communication
primitive moved, and how many collective rounds were executed.  The machine
model (:mod:`repro.parallel.machine`) converts these counts into modeled
wall-clock times for arbitrary core counts, which is how the paper-scale
core counts (up to 62,464) are produced from runs on a handful of simulated
ranks.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CommStats", "payload_nbytes", "merge_stats"]


def payload_nbytes(obj) -> int:
    """Estimate the wire size of a message payload in bytes.

    The accounting is *position-independent*: a value contributes the
    same byte count whether it is sent bare or reached through a
    container, so phase-level byte attribution composes.  Rules:

    - NumPy arrays report their exact buffer size (``.nbytes``).
    - NumPy scalars report their itemsize (``np.float32(1)`` is 4, not
      a flat 8), again via ``.nbytes``.
    - ``bytes``/``bytearray``/``memoryview`` report their length.
    - Containers (list/tuple/set/frozenset/dict) sum their items
      recursively; dicts include the keys.
    - Dataclass instances sum their fields recursively (an MPI-style
      send would serialize the payload, not the Python object header).
    - Native ``bool``/``int``/``float``/``complex`` count a flat 8
      (the wire width of the C types the paper's MPI code would use).
    - Anything else falls back to ``sys.getsizeof``.

    Example::

        payload_nbytes(np.zeros(3)) == 24
        payload_nbytes([np.float32(1.0)]) == payload_nbytes(np.float32(1.0)) == 4
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        # numpy scalar: its actual wire width, consistent between the
        # bare-scalar and through-a-container paths
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            payload_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (int, float, complex, bool)):
        return 8
    return sys.getsizeof(obj)


@dataclass
class CommStats:
    """Per-rank tally of communication activity.

    Attributes
    ----------
    p2p_messages, p2p_bytes:
        Point-to-point sends issued by this rank and their payload volume.
    collective_calls:
        Number of collective operations (allgather, allreduce, alltoall,
        scan, barrier, bcast) this rank participated in, keyed by name.
    collective_bytes:
        Payload bytes this rank *contributed* to each collective, keyed by
        name.  For an allgather of one int per rank this is 8, regardless
        of P; the machine model supplies the P-dependent cost.
    flops:
        Floating point work explicitly charged via :meth:`add_flops`
        (numerical kernels charge analytic counts).
    """

    p2p_messages: int = 0
    p2p_bytes: int = 0
    collective_calls: dict = field(default_factory=dict)
    collective_bytes: dict = field(default_factory=dict)
    flops: float = 0.0

    def record_p2p(self, nbytes: int) -> None:
        self.p2p_messages += 1
        self.p2p_bytes += nbytes

    def record_collective(self, name: str, nbytes: int) -> None:
        self.collective_calls[name] = self.collective_calls.get(name, 0) + 1
        self.collective_bytes[name] = self.collective_bytes.get(name, 0) + nbytes

    def add_flops(self, n: float) -> None:
        self.flops += float(n)

    @property
    def total_collective_calls(self) -> int:
        return sum(self.collective_calls.values())

    @property
    def total_bytes(self) -> int:
        return self.p2p_bytes + sum(self.collective_bytes.values())

    def snapshot(self) -> "CommStats":
        """Return a deep copy, independent of later records on this tally."""
        return CommStats(
            p2p_messages=self.p2p_messages,
            p2p_bytes=self.p2p_bytes,
            collective_calls=dict(self.collective_calls),
            collective_bytes=dict(self.collective_bytes),
            flops=self.flops,
        )

    def __iadd__(self, other: "CommStats") -> "CommStats":
        """In-place accumulate ``other`` into this tally (aliasing-safe)."""
        if not isinstance(other, CommStats):
            return NotImplemented
        if other is self:
            other = other.snapshot()  # freeze before self-mutation
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.flops += other.flops
        for k, v in list(other.collective_calls.items()):
            self.collective_calls[k] = self.collective_calls.get(k, 0) + v
        for k, v in list(other.collective_bytes.items()):
            self.collective_bytes[k] = self.collective_bytes.get(k, 0) + v
        return self


def merge_stats(stats: list[CommStats]) -> CommStats:
    """Aggregate per-rank stats into a world total (sums over ranks)."""
    out = CommStats()
    for s in stats:
        out += s
    return out
