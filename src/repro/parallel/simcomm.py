"""In-process SPMD execution with an MPI-like communicator.

The paper ran on Ranger with MPI; this module provides the substitute
substrate: each simulated rank is a thread, and :class:`SimComm` exposes the
subset of MPI used by ALPS/RHEA — point-to-point ``send``/``recv``,
``allgather``, ``allreduce``, ``alltoall`` (and the vector variant),
``exscan``, ``bcast``, and ``barrier``.  All algorithms in
:mod:`repro.octree`, :mod:`repro.mesh` and :mod:`repro.solvers` are written
SPMD-style against this interface, exactly as they would be against
``mpi4py``; only the transport differs.

Collectives are implemented with a shared slot array and a two-phase
barrier (deposit / read) which is correct for bulk-synchronous programs.
Every operation is tallied in :class:`~repro.parallel.stats.CommStats` so
the machine model can price the communication at arbitrary core counts.

Use :func:`run_spmd` to execute a rank function on ``P`` simulated ranks::

    def kernel(comm, n):
        local = np.arange(n) + comm.rank * n
        total = comm.allreduce(local.sum())
        return total

    results = run_spmd(4, kernel, 10)   # list of 4 identical totals

Exceptions raised by any rank abort the whole world (the barrier is broken
so no thread hangs) and are re-raised in the caller.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

from .stats import CommStats, payload_nbytes

__all__ = [
    "SimComm",
    "SimWorld",
    "run_spmd",
    "SpmdAbort",
    "set_comm_factory",
    "get_comm_factory",
    "InjectedFault",
    "arm_fault",
    "disarm_fault",
    "fault_injection",
    "check_fault",
]


class SpmdAbort(RuntimeError):
    """Raised in surviving ranks when another rank failed."""


class InjectedFault(RuntimeError):
    """Deliberate rank kill from the fault-injection hook (tests only)."""

    def __init__(self, rank: int, step: int):
        super().__init__(
            f"injected fault: rank {rank} killed at step {step}"
        )
        self.rank = rank
        self.step = step


# One armed fault at a time: the driver loops poll it via
# :func:`check_fault`, so a test can kill a chosen rank at a chosen step
# and exercise the crash/restore path end to end.
_fault_lock = threading.Lock()
_fault: dict | None = None


def arm_fault(rank: int, step: int) -> None:
    """Arm the hook: the first :func:`check_fault` on ``rank`` whose step
    counter has reached ``step`` raises :class:`InjectedFault` there (the
    world then aborts, as for any real rank failure)."""
    global _fault
    with _fault_lock:
        _fault = {"rank": int(rank), "step": int(step), "fired": False}


def disarm_fault() -> None:
    global _fault
    with _fault_lock:
        _fault = None


@contextmanager
def fault_injection(rank: int, step: int):
    """``with fault_injection(1, 40): ...`` — armed inside, always
    disarmed on exit (even when the injected crash propagates out)."""
    arm_fault(rank, step)
    try:
        yield
    finally:
        disarm_fault()


def check_fault(comm, step: int) -> None:
    """Driver hook: raise :class:`InjectedFault` if a fault is armed for
    this rank and ``step`` has reached the armed step.

    ``comm=None`` means a serial driver (treated as rank 0).  Fires at
    most once per arming.
    """
    f = _fault  # lint: disable=R10 — a test hook armed in this interpreter
    if f is None:
        return
    rank = comm.rank if comm is not None else 0
    if rank != f["rank"] or step < f["step"]:
        return
    with _fault_lock:
        if f["fired"] or _fault is not f:  # lint: disable=R10 — re-armed since the read
            return
        f["fired"] = True
    raise InjectedFault(rank, step)


def _reduce_extremum(vals, ufunc, pyfunc):
    """Min/max over mixed scalar/ndarray contributions.

    Contributions are normalized *before* dispatching: if any rank sent
    an ndarray the reduction is elementwise with scalars broadcast
    (what MPI's ``MPI_MIN``/``MPI_MAX`` do for matching buffers), and
    the result never aliases a contribution.  Dispatching on ``vals[0]``
    alone — the old behavior — took the scalar branch whenever rank 0
    happened to contribute a scalar, and ``min``/``max`` over a list
    containing an ndarray then raised or silently compared garbage.
    """
    if any(isinstance(v, np.ndarray) for v in vals):
        out = vals[0]
        out = out.copy() if isinstance(out, np.ndarray) else out
        for v in vals[1:]:
            out = ufunc(out, v)
        return out if isinstance(out, np.ndarray) else np.asarray(out)
    return pyfunc(vals)


_REDUCTIONS: dict[str, Callable] = {
    "sum": lambda vals: _tree_sum(vals),
    "min": lambda vals: _reduce_extremum(vals, np.minimum, min),
    "max": lambda vals: _reduce_extremum(vals, np.maximum, max),
    "prod": lambda vals: _tree_prod(vals),
    "lor": lambda vals: any(vals),
    "land": lambda vals: all(vals),
}


def _tree_sum(vals):
    out = vals[0]
    if isinstance(out, np.ndarray):
        out = out.copy()
        for v in vals[1:]:
            out += v
        return out
    for v in vals[1:]:
        out = out + v
    return out


def _tree_prod(vals):
    out = vals[0]
    if isinstance(out, np.ndarray):
        out = out.copy()
    for v in vals[1:]:
        out = out * v
    return out


def _copy_payload(obj: Any) -> Any:
    """Defensive copy of the numpy content of a message payload.

    Real MPI always lands data in a receive buffer owned by the
    receiving rank; the in-process transport hands every rank the *same*
    object, so without a copy two simulated ranks can alias (and
    corrupt through) one buffer — a divergence from MPI semantics that
    would also mask genuine mutation bugs from the cache sanitizer.
    Arrays are copied; containers are rebuilt around copied arrays;
    scalars and opaque objects pass through.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


class SimWorld:
    """Shared state for one SPMD execution: barrier, slots, mailboxes."""

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self._barrier = threading.Barrier(nranks)
        self._slots: list[Any] = [None] * nranks
        self._mail_lock = threading.Condition()
        self._mail: dict[tuple[int, int, int], deque] = {}
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()

    def abort(self, exc: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = exc
        self._barrier.abort()
        with self._mail_lock:
            self._mail_lock.notify_all()

    def wait_barrier(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise SpmdAbort("another rank aborted") from None

    # -- point-to-point transport ------------------------------------------
    #
    # SimComm delegates message delivery to the world through these two
    # methods, so communicator subclasses (CheckedComm, the fuzzer) share
    # one mail dict.  The payload is copied exactly once, at post, and the
    # receiver owns what it gets: a sender writing into its buffer after
    # send() cannot reach the receiver (MPI's buffered-send semantics).

    def post(self, src: int, dest: int, tag: int, obj: Any) -> None:
        """Deliver a snapshot of ``obj`` on channel ``(src, dest, tag)``;
        never blocks."""
        obj = _copy_payload(obj)
        with self._mail_lock:
            self._mail.setdefault((src, dest, tag), deque()).append(obj)
            self._mail_lock.notify_all()

    def fetch(self, src: int, dest: int, tag: int, timeout: float | None = None) -> Any:
        """Block until a message on ``(src, dest, tag)`` arrives; FIFO
        per channel.  Raises :class:`SpmdAbort` if the world dies and
        ``TimeoutError`` if ``timeout`` seconds pass without a message."""
        key = (src, dest, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mail_lock:
            while True:
                if self._error is not None:
                    raise SpmdAbort("another rank aborted")
                q = self._mail.get(key)
                if q:
                    return q.popleft()
                wait = 0.2
                if deadline is not None:
                    wait = min(wait, deadline - time.monotonic())
                    if wait <= 0:
                        raise TimeoutError(f"no message on channel {key}")
                self._mail_lock.wait(timeout=wait)


class SimComm:
    """MPI-like communicator bound to one simulated rank.

    Attributes
    ----------
    rank, size:
        This rank's index and the number of ranks in the world.
    stats:
        The per-rank :class:`CommStats` tally.
    """

    def __init__(self, world: SimWorld, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.nranks
        self.stats = CommStats()

    # -- point-to-point ----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Post a message; never blocks (buffered send)."""
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid dest rank {dest}")
        self.stats.record_p2p(payload_nbytes(obj))
        self._world.post(self.rank, dest, tag, obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block until a message from ``source`` with ``tag`` arrives.

        The receiver owns the result: the world copied the payload once,
        at post."""
        return self._world.fetch(source, self.rank, tag)

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        self.stats.record_collective("barrier", 0)
        self._world.wait_barrier()

    def _exchange(self, obj: Any) -> list[Any]:
        """Deposit ``obj`` in this rank's slot; return everyone's deposit.

        Two barriers: one after deposit (all slots filled), one after read
        (slots may be reused by the next collective).
        """
        w = self._world
        w._slots[self.rank] = obj
        w.wait_barrier()
        result = list(w._slots)
        w.wait_barrier()
        return result

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object from every rank, returned in rank order.

        Numpy content is defensively copied: every rank receives its own
        buffers (as with real MPI), never views shared with other ranks.
        """
        self.stats.record_collective("allgather", payload_nbytes(obj))
        return [_copy_payload(v) for v in self._exchange(obj)]

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self.stats.record_collective("gather", payload_nbytes(obj))
        vals = self._exchange(obj)
        return [_copy_payload(v) for v in vals] if self.rank == root else None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self.stats.record_collective(
            "bcast", payload_nbytes(obj) if self.rank == root else 0
        )
        vals = self._exchange(obj if self.rank == root else None)
        return _copy_payload(vals[root])

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce ``value`` across ranks with ``op`` and return the result.

        The reduction is computed deterministically in rank order on every
        rank, so all ranks see a bit-identical result.
        """
        if op not in _REDUCTIONS:
            raise ValueError(f"unknown reduction op {op!r}")
        self.stats.record_collective("allreduce", payload_nbytes(value))
        vals = self._exchange(value)
        return _REDUCTIONS[op](vals)

    def exscan(self, value, op: str = "sum"):
        """Exclusive prefix reduction; rank 0 receives the zero element.

        Only ``sum`` is supported (the only exscan ALPS needs: computing
        global offsets of local element/dof counts).
        """
        if op != "sum":
            raise ValueError("exscan supports op='sum' only")
        self.stats.record_collective("exscan", payload_nbytes(value))
        vals = self._exchange(value)
        if isinstance(value, np.ndarray):
            acc = np.zeros_like(value)
            for v in vals[: self.rank]:
                acc = acc + v
            return acc
        acc = 0
        for v in vals[: self.rank]:
            acc += v
        return acc

    def alltoall(self, sendlist: list[Any]) -> list[Any]:
        """Personalized all-to-all: ``sendlist[j]`` goes to rank ``j``.

        Returns a list where entry ``i`` is what rank ``i`` sent to us.
        """
        if len(sendlist) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} entries, got {len(sendlist)}"
            )
        self.stats.record_collective("alltoall", payload_nbytes(sendlist))
        mat = self._exchange(sendlist)
        return [_copy_payload(mat[i][self.rank]) for i in range(self.size)]

    def alltoallv_arrays(self, parts: list[np.ndarray]) -> list[np.ndarray]:
        """Alltoall specialised to lists of NumPy arrays (ALPS's main
        redistribution primitive, used by PartitionTree / TransferFields)."""
        return self.alltoall(parts)

    # -- convenience ---------------------------------------------------------

    def allgather_concat(self, arr: np.ndarray) -> np.ndarray:
        """Allgather 1-D/2-D arrays and concatenate along axis 0."""
        parts = self.allgather(arr)
        return np.concatenate([p for p in parts if len(p)], axis=0) if any(
            len(p) for p in parts
        ) else arr[:0]

    def global_offsets(self, local_count: int) -> tuple[int, int]:
        """Return (my_offset, global_total) for a local item count."""
        counts = self.allgather(int(local_count))
        return sum(counts[: self.rank]), sum(counts)

    def _finalize(self) -> None:
        """Hook called by :func:`run_spmd` after the rank function returns
        (normally or not).  Subclasses flush buffered state here (the
        sanitizer's delivery fuzzer drains held messages)."""


# -- communicator factory hook ----------------------------------------------

#: when set, :func:`run_spmd` builds communicators through this factory
#: instead of :class:`SimComm` — the substitution point for
#: :class:`repro.parallel.sanitize.CheckedComm`
_COMM_FACTORY: Callable[[SimWorld, int], SimComm] | None = None


def set_comm_factory(factory: Callable[[SimWorld, int], SimComm] | None) -> None:
    """Install (or clear, with ``None``) the communicator factory used by
    :func:`run_spmd`.  ``factory(world, rank)`` must return a
    :class:`SimComm` (or subclass) bound to that rank."""
    global _COMM_FACTORY
    _COMM_FACTORY = factory


def get_comm_factory() -> Callable[[SimWorld, int], SimComm] | None:
    return _COMM_FACTORY


def _resolve_comm_factory() -> Callable[[SimWorld, int], SimComm]:
    """The communicator factory in effect: an installed factory wins,
    else ``REPRO_SANITIZE`` substitutes CheckedComm, else plain SimComm."""
    if _COMM_FACTORY is not None:
        return _COMM_FACTORY
    # lazy import: the sanitizer module imports this one
    from .sanitize import CheckedComm, sanitize_enabled

    return CheckedComm if sanitize_enabled() else SimComm


def _run_threads(world: SimWorld, comms: list[SimComm], fn, args, kwargs):
    """Thread-per-rank execution over pre-built communicators."""
    results: list[Any] = [None] * world.nranks

    def runner(r: int) -> None:
        try:
            try:
                results[r] = fn(comms[r], *args, **kwargs)
            finally:
                comms[r]._finalize()
        except SpmdAbort:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            world.abort(exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simrank-{r}")
        for r in range(world.nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if world._error is not None:
        raise world._error
    return results


def run_spmd(nranks: int, fn: Callable, *args, **kwargs) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Returns the list of per-rank return values in rank order.  If any rank
    raises, the world is aborted and the first exception is re-raised.

    Each rank is a thread of this process.  ``nranks == 1`` runs inline
    on the calling thread (fast path used heavily by tests; also what MPI
    does for one rank).
    """
    return run_spmd_with_comms(nranks, fn, *args, **kwargs)[0]


def run_spmd_with_comms(nranks: int, fn: Callable, *args, **kwargs):
    """Like :func:`run_spmd` but also returns the communicators (for their
    post-run ``stats``)."""
    world = SimWorld(nranks)
    factory = _resolve_comm_factory()
    comms = [factory(world, r) for r in range(nranks)]
    if nranks == 1:
        try:
            return [fn(comms[0], *args, **kwargs)], comms
        finally:
            comms[0]._finalize()
    return _run_threads(world, comms, fn, args, kwargs), comms
