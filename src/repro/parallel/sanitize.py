"""Runtime sanitizers for SPMD communication and memoized state.

This module is the repository's one check of the SPMD communication
contract; ``tests/test_analysis_mutations.py`` pins which seeded bug
class each mechanism catches (the matrix is in EXPERIMENTS.md).

**Collective divergence** — :class:`CheckedComm` wraps the simulated
communicator and, before every collective, exchanges a small metadata
record ``(sequence number, op, call-site, payload signature)`` across
the world.  If the records disagree — one rank calls ``allreduce``
where another calls ``allgather``, from a different line (including a
collective reached through a helper on some ranks only), or with a
different payload dtype — every rank raises a structured
:class:`CollectiveMismatch` naming each rank's op and call-site instead
of deadlocking.  A rank that never shows up (the classic
rank-dependent-branch hang) trips a barrier timeout, which aborts the
world with the same report.

**Point-to-point deadlock** — :meth:`CheckedComm.recv` waits at most
the same timeout and then raises :class:`RecvTimeout` naming the
channel ``(source, dest, tag)``, so a receive posted before its
matching send fails instead of hanging.  A seeded *delivery fuzzer*
additionally perturbs the order in which point-to-point messages are
handed to the transport (holding and releasing whole channels in
shuffled order, FIFO per channel as MPI guarantees) to surface latent
ordering assumptions; a held message is a snapshot taken at send, as
every p2p payload is.

**Cache mutation** — :func:`freeze` fingerprints the numpy content of
a memoized value; :func:`verify_frozen` recomputes the fingerprint at
the next access and raises :class:`CacheMutationError` if the value was
written in place.  :mod:`repro.mesh.opcache` and
:class:`repro.solvers.blockprec.LaggedStokesPreconditioner` call these
guards on every hit when sanitizing is enabled.

Enabling
--------
``REPRO_SANITIZE=1`` in the environment (read by :func:`sanitize_enabled`
and nowhere else) switches both prongs on:
:func:`repro.parallel.simcomm.run_spmd` substitutes :class:`CheckedComm`
for :class:`~repro.parallel.simcomm.SimComm`, and the cache guards
activate.  Programmatic control: :func:`install` / :func:`uninstall`
(which also take a fuzzer seed), or pass :class:`CheckedComm` to
:func:`repro.parallel.simcomm.set_comm_factory` directly.

The tier-1 suite is required to pass with ``REPRO_SANITIZE=1`` — the
sanitizers change failure modes, never results.

``REPRO_SANITIZE_TIMEOUT`` (seconds, a positive finite number; anything
else raises ``ValueError``) overrides the timeout of the metadata
barriers and of ``recv``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import threading
import traceback
from collections import deque
from typing import Any

import numpy as np

from .simcomm import (
    SimComm,
    SimWorld,
    SpmdAbort,
    _copy_payload,
    set_comm_factory,
)

__all__ = [
    "CheckedComm",
    "CollectiveMismatch",
    "RecvTimeout",
    "CacheMutationError",
    "sanitize_enabled",
    "freeze",
    "verify_frozen",
    "maybe_freeze",
    "maybe_verify",
    "checked_comm_factory",
    "install",
    "uninstall",
]

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ``""``/``0``."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


# --------------------------------------------------------------------------
# collective divergence


class CollectiveMismatch(RuntimeError):
    """Raised on every rank when the world's collective sequences diverge.

    ``report`` maps rank -> its metadata record at the point of
    divergence: ``{"seq": int, "op": str, "site": "file:line",
    "sig": str}`` (or ``None`` for a rank that never reached the
    collective — the timeout case also attaches recent history).
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}

    def __reduce__(self):
        # preserve ``report`` across pickling (the process SPMD backend
        # ships worker exceptions back to the parent)
        return (CollectiveMismatch, (self.args[0], self.report))


class RecvTimeout(RuntimeError):
    """Raised when a checked ``recv`` waits longer than the timeout: no
    message arrived on channel ``(source, dest, tag)`` — typically a
    receive posted before its matching send on every rank."""

    def __init__(self, source: int, dest: int, tag: int, timeout: float):
        super().__init__(
            f"rank {dest}: no message from rank {source} with tag {tag} "
            f"within {timeout:.1f}s (receive posted before its matching send?)"
        )
        self.source, self.dest, self.tag, self.timeout = source, dest, tag, timeout

    def __reduce__(self):
        return (RecvTimeout, (self.source, self.dest, self.tag, self.timeout))


def _timeout_from_env() -> float | None:
    """``REPRO_SANITIZE_TIMEOUT`` in seconds, or None when unset.  A
    zero or negative timeout would make every barrier report a false
    divergence, and a typo would silently mean the default, so both raise."""
    env = os.environ.get("REPRO_SANITIZE_TIMEOUT", "")
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"REPRO_SANITIZE_TIMEOUT must be a positive number of seconds, got {env!r}"
        )
    return value


def _payload_signature(obj: Any) -> str:
    """Coarse dtype/shape-class signature of a collective payload.

    Exact shapes and container lengths are legitimately rank-dependent
    (each rank contributes its local slice), so only the structure that
    MUST agree is fingerprinted: array dtype and rank (ndim), scalar
    kind, container kind.
    """
    if obj is None:
        return "none"
    if isinstance(obj, np.ndarray):
        return f"ndarray[{obj.dtype},{obj.ndim}d]"
    if isinstance(obj, (bool, np.bool_)):
        return "bool"
    if isinstance(obj, (int, np.integer)):
        return "int"
    if isinstance(obj, (float, np.floating)):
        return "float"
    if isinstance(obj, (list, tuple)):
        return "seq"
    if isinstance(obj, dict):
        return "dict"
    if isinstance(obj, str):
        return "str"
    return type(obj).__name__


def _call_site() -> str:
    """``file.py:line`` of the nearest caller outside the comm layers."""
    for fs in reversed(traceback.extract_stack()):
        if os.path.dirname(os.path.abspath(fs.filename)) != _THIS_DIR:
            return f"{os.path.basename(fs.filename)}:{fs.lineno}"
    return "<unknown>"


class CheckedComm(SimComm):
    """A :class:`SimComm` that verifies collective symmetry as it runs.

    Every collective first exchanges ``(seq, op, call-site, payload
    signature)`` through the world's slot array (with a timeout on the
    barrier) and raises :class:`CollectiveMismatch` when ranks disagree,
    turning both silent corruption *and* deadlock into a structured
    error; ``recv`` waits at most the same timeout and raises
    :class:`RecvTimeout`.  With ``fuzz_seed`` set, point-to-point sends
    are routed through a seeded hold-and-release queue that perturbs
    cross-channel delivery order while preserving MPI's
    per-``(source, dest, tag)`` FIFO guarantee.
    """

    #: seconds a rank waits at a metadata barrier (or in ``recv``) before
    #: declaring the world diverged (some rank never issued the matching
    #: collective or send); overridable per-run with
    #: ``REPRO_SANITIZE_TIMEOUT`` (seconds)
    DEFAULT_TIMEOUT = 10.0
    #: collectives per rank kept for divergence reports
    MAX_HISTORY = 64

    def __init__(
        self,
        world: SimWorld,
        rank: int,
        timeout: float | None = None,
        fuzz_seed: int | None = None,
    ):
        super().__init__(world, rank)
        if timeout is None:
            timeout = _timeout_from_env()
        self.timeout = self.DEFAULT_TIMEOUT if timeout is None else float(timeout)
        self._seq = 0
        self._history: deque = deque(maxlen=self.MAX_HISTORY)
        # shared registry of per-rank histories for divergence reports;
        # communicators are built sequentially in run_spmd, so plain
        # attribute initialization is race-free
        registry = getattr(world, "_checked_histories", None)
        if registry is None:
            registry = {}
            world._checked_histories = registry
        registry[rank] = self._history
        self._rng = None if fuzz_seed is None else np.random.default_rng(
            np.random.SeedSequence(entropy=fuzz_seed, spawn_key=(rank,))
        )
        self._pending: dict[tuple[int, int], list] = {}
        self.n_held = 0
        self.n_shuffles = 0

    # -- metadata exchange -------------------------------------------------

    def _timed_barrier(self, meta: dict) -> None:
        w = self._world
        try:
            w._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            if w._error is not None:
                raise SpmdAbort("another rank aborted") from None
            # nobody failed: some rank never reached this collective
            exc = CollectiveMismatch(
                f"rank {self.rank}: no matching collective from all ranks "
                f"within {self.timeout:.1f}s at {meta['op']} ({meta['site']}); "
                f"rank histories: {self._histories_snapshot()}",
                report=self._divergence_report([None] * self.size),
            )
            w.abort(exc)
            raise exc from None

    def _histories_snapshot(self) -> dict:
        registry = getattr(self._world, "_checked_histories", {})
        return {r: list(h)[-3:] for r, h in sorted(registry.items())}

    def _divergence_report(self, metas: list) -> dict:
        report = {}
        for r in range(self.size):
            m = metas[r] if r < len(metas) else None
            report[r] = dict(m) if isinstance(m, dict) else None
        return report

    def _checked(self, op: str, payload: Any) -> None:
        """Exchange and compare collective metadata before the payload."""
        self._flush_pending()
        meta = {
            "seq": self._seq,
            "op": op,
            "site": _call_site(),
            "sig": _payload_signature(payload),
        }
        self._seq += 1
        self._history.append((meta["seq"], op, meta["site"], meta["sig"]))
        w = self._world
        w._slots[self.rank] = meta
        self._timed_barrier(meta)
        metas = list(w._slots)
        self._timed_barrier(meta)
        mine = (meta["seq"], meta["op"], meta["site"], meta["sig"])
        for r, other in enumerate(metas):
            theirs = (other["seq"], other["op"], other["site"], other["sig"])
            if theirs != mine:
                exc = CollectiveMismatch(
                    f"collective divergence at step {meta['seq']}: rank "
                    f"{self.rank} called {meta['op']} at {meta['site']} "
                    f"(payload {meta['sig']}) but rank {r} called "
                    f"{other['op']} at {other['site']} (payload "
                    f"{other['sig']})",
                    report=self._divergence_report(metas),
                )
                w.abort(exc)
                raise exc

    # -- checked collectives ----------------------------------------------

    def barrier(self) -> None:
        self._checked("barrier", None)
        super().barrier()

    def allgather(self, obj: Any) -> list[Any]:
        self._checked("allgather", obj)
        return super().allgather(obj)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._checked(f"gather[root={root}]", obj)
        return super().gather(obj, root)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        # only the root's payload travels, so there is no cross-rank
        # signature to compare — check op/site/sequence symmetry only
        self._checked(f"bcast[root={root}]", None)
        return super().bcast(obj, root)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        self._checked(f"allreduce[{op}]", value)
        return super().allreduce(value, op)

    def exscan(self, value, op: str = "sum"):
        self._checked(f"exscan[{op}]", value)
        return super().exscan(value, op)

    def alltoall(self, sendlist: list[Any]) -> list[Any]:
        self._checked("alltoall", sendlist)
        return super().alltoall(sendlist)

    # -- timed, fuzzed point-to-point --------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if self._rng is None:
            super().send(obj, dest, tag)
            return
        key = (dest, tag)
        # once a channel holds a message, later sends on it must queue
        # behind it to preserve per-channel FIFO; a held message is a
        # snapshot, like every posted one
        if key in self._pending or self._rng.random() < 0.5:
            self._pending.setdefault(key, []).append(_copy_payload(obj))
            self.n_held += 1
        else:
            super().send(obj, dest, tag)
        if self._pending and self._rng.random() < 0.25:
            self._flush_pending()

    def recv(self, source: int, tag: int = 0) -> Any:
        self._flush_pending()
        try:
            return self._world.fetch(source, self.rank, tag, self.timeout)
        except TimeoutError:
            exc = RecvTimeout(source, self.rank, tag, self.timeout)
            self._world.abort(exc)
            raise exc from None

    def _flush_pending(self) -> None:
        """Release held channels in a seeded shuffled order (FIFO within
        each channel, perturbed order across channels)."""
        if not self._pending:
            return
        keys = list(self._pending.keys())
        if self._rng is not None and len(keys) > 1:
            self._rng.shuffle(keys)
            self.n_shuffles += 1
        for dest, tag in keys:
            for obj in self._pending.pop((dest, tag)):
                super().send(obj, dest, tag)

    def _finalize(self) -> None:
        self._flush_pending()


def checked_comm_factory(
    timeout: float | None = None, fuzz_seed: int | None = None
):
    """A :func:`~repro.parallel.simcomm.set_comm_factory`-compatible
    factory producing configured :class:`CheckedComm` instances."""

    def factory(world: SimWorld, rank: int) -> CheckedComm:
        return CheckedComm(world, rank, timeout=timeout, fuzz_seed=fuzz_seed)

    return factory


def install(timeout: float | None = None, fuzz_seed: int | None = None) -> None:
    """Substitute :class:`CheckedComm` in every subsequent
    :func:`~repro.parallel.simcomm.run_spmd` world."""
    set_comm_factory(checked_comm_factory(timeout=timeout, fuzz_seed=fuzz_seed))


def uninstall() -> None:
    """Restore the plain :class:`~repro.parallel.simcomm.SimComm`."""
    set_comm_factory(None)


# --------------------------------------------------------------------------
# cache mutation guards


class CacheMutationError(RuntimeError):
    """A memoized value was mutated in place after being cached."""


def _iter_arrays(obj: Any, _depth: int = 0):
    """Yield the ndarrays reachable from a cached value.

    Handles arrays, scipy sparse matrices (via their buffer triplet),
    dataclass instances (via their fields) and list/tuple/dict
    containers; other objects are skipped (guard call sites pass their
    arrays explicitly).
    """
    if _depth > 6 or obj is None:
        return
    if isinstance(obj, np.ndarray):
        yield obj
        return
    # scipy CSR/CSC/BSR expose .data/.indices/.indptr; COO .data/.row/.col
    for triplet in (("data", "indices", "indptr"), ("data", "row", "col")):
        if all(hasattr(obj, a) for a in triplet):
            for a in triplet:
                yield from _iter_arrays(getattr(obj, a), _depth + 1)
            return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _iter_arrays(getattr(obj, f.name), _depth + 1)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _iter_arrays(x, _depth + 1)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _iter_arrays(x, _depth + 1)


def freeze(value: Any) -> str:
    """Content fingerprint of the numpy state of ``value``.

    dtype, shape, and bytes of every reachable array feed a blake2b
    hash; any in-place write changes the digest.
    """
    h = hashlib.blake2b(digest_size=16)
    count = 0
    for arr in _iter_arrays(value):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
        count += 1
    h.update(count.to_bytes(4, "little"))
    return h.hexdigest()


def verify_frozen(value: Any, token: str | None, context: str = "") -> None:
    """Raise :class:`CacheMutationError` if ``value`` no longer matches
    the fingerprint taken by :func:`freeze` (``token=None`` is a no-op,
    so call sites can pass through un-sanitized tokens)."""
    if token is None:
        return
    if freeze(value) != token:
        where = f" ({context})" if context else ""
        raise CacheMutationError(
            f"memoized value was mutated in place{where}: cached state is "
            "shared across solves and must be treated as immutable — copy "
            "before writing, or invalidate the cache"
        )


def maybe_freeze(value: Any) -> str | None:
    """:func:`freeze` when sanitizing is enabled, else ``None``."""
    return freeze(value) if sanitize_enabled() else None


def maybe_verify(value: Any, token: str | None, context: str = "") -> None:
    """:func:`verify_frozen` when sanitizing is enabled (cheap no-op
    otherwise, so guards can stay wired in unconditionally)."""
    if token is not None and sanitize_enabled():
        verify_frozen(value, token, context)
