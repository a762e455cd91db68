"""Process-pool SPMD backend: real ranks, shared-memory transport.

:mod:`repro.parallel.simcomm` runs every simulated rank as a thread under
the GIL, so measured "parallel" wall-clock never scales with host cores.
This module provides the second backend behind the same Comm API:
``run_spmd(nranks, fn, backend="process")`` dispatches the rank function
to ``nranks`` long-lived **worker processes** (spawn start method, safe on
every platform) where each rank owns a full interpreter.

Transport
---------
Collective payloads follow exactly the slot discipline SimComm documents
(deposit / barrier / read / barrier), but the "slot array" is a
per-rank ``multiprocessing.shared_memory`` **ring** split into two parity
regions (seq mod 2).  A deposit serializes the payload into the rank's
current parity region: numpy arrays are written raw (64-byte aligned,
described by ``(offset, dtype, shape)``) and reconstructed on the reader
side as **zero-copy views**; everything else rides in a pickled
descriptor.  Double buffering makes the views race-free: a region is only
rewritten two exchanges later, and SimComm's defensive ``_copy_payload``
(unchanged, shared across backends) has materialized every view by then.
Oversized payloads spill to one-shot shared-memory segments; tiny arrays
and non-array payloads fall back to pickle.  Point-to-point messages
travel a per-rank ``multiprocessing.Queue`` (pickle-over-pipe) with the
same spill path for large arrays, preserving MPI's per-channel FIFO.  A
message is serialized at send, so a later write into the sender's buffer
cannot reach it, and copied once, out of its spill segment, at fetch; the
receiver owns what ``recv`` returns.

The worker-side world (:class:`ProcWorld`) duck-types ``SimWorld`` —
``_slots``, ``_barrier`` (a real ``multiprocessing.Barrier`` with
``threading.Barrier`` semantics), ``_error``, ``abort``, ``post``,
``fetch`` — so :class:`~repro.parallel.sanitize.CheckedComm` and the
delivery fuzzer run **unchanged** on top and certify the backend
bitwise-equivalent to the threaded oracle.

Spawn-safety rules for kernels
------------------------------
Kernels and their arguments are shipped by value with a pickler that also
handles **closures and nested functions** (code marshaled, cells by
value, globals resolved through the defining module).  A kernel must not
rely on module-global *mutable* state armed in the parent — that state
does not exist in a worker interpreter (lint rule R10 flags such reads).
The run envelope re-broadcasts the supported globals per run: the
communicator factory, the armed fault spec (:func:`armed_fault`) and the
sanitizer environment.  Worker ``CommStats`` and any still-bound obs
``PhaseTimer`` results are gathered back to the parent at world teardown.
"""

from __future__ import annotations

import atexit
import importlib
import io
import marshal
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal
import struct
import sys
import threading
import time
import types
from collections import deque
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from . import simcomm
from .simcomm import InjectedFault, SimComm, SpmdAbort

__all__ = [
    "ProcWorld",
    "ProcCommProxy",
    "run_spmd_process",
    "available",
    "shutdown_pools",
]

#: per-rank ring segment size (two parity regions of half this each)
_RING_BYTES = 1 << 22
#: arrays below this ride pickled inside the collective descriptor
_INLINE_MAX = 2048
#: p2p arrays at or above this move through a one-shot spill segment
_P2P_SPILL_MIN = 1 << 15
_ALIGN = 64
_HEADER = struct.Struct("<QQ")  # (exchange seq, descriptor nbytes)

#: environment propagated from parent to worker per run envelope
_ENV_KEYS = ("REPRO_SANITIZE", "REPRO_SANITIZE_TIMEOUT")


# --------------------------------------------------------------------------
# closure-capable codec (kernels in tests are nested functions)


def _real_module_name(fn: types.FunctionType) -> str | None:
    """The importable module name for ``fn``, seeing through ``__main__``.

    ``python -m pkg.mod`` runs ``pkg.mod`` under the name ``__main__``;
    a worker can still import it by its spec name, which keeps module
    functions by-reference (and their relative imports working)."""
    name = fn.__module__
    if name in ("__main__", "__mp_main__"):
        spec = getattr(sys.modules.get(name), "__spec__", None)
        spec_name = getattr(spec, "name", None)
        if spec_name in (None, "__main__", "__mp_main__"):
            return None
        return spec_name
    return name or None


def _lookup_qualname(module: str, qualname: str):
    target: Any = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _importable(fn: types.FunctionType) -> bool:
    """Can ``fn`` be recovered by module + qualname lookup in a worker?"""
    if "<locals>" in fn.__qualname__:
        return False
    module = _real_module_name(fn)
    if module is None:
        return False
    try:
        return _lookup_qualname(module, fn.__qualname__) is fn
    except Exception:
        return False


def _global_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _rebuild_function(
    code_bytes, module, name, qualname, defaults, kwdefaults, closure_spec, extra
):
    """Worker-side reconstruction of a by-value function (see
    :class:`_SpmdPickler`)."""
    code = marshal.loads(code_bytes)
    if extra is None:
        g = importlib.import_module(module).__dict__
    else:
        g = dict(extra)
        g.setdefault("__builtins__", __builtins__)
        g.setdefault("__name__", module or "__procomm__")
    cells = None
    if closure_spec is not None:
        cells = tuple(
            types.CellType(val) if filled else types.CellType()
            for filled, val in closure_spec
        )
    fn = types.FunctionType(code, g, name, defaults, cells)
    fn.__kwdefaults__ = kwdefaults
    fn.__qualname__ = qualname
    fn.__module__ = module
    return fn


def _reduce_function(fn: types.FunctionType):
    closure = None
    if fn.__closure__ is not None:
        closure = []
        for cell in fn.__closure__:
            try:
                closure.append((True, cell.cell_contents))
            except ValueError:  # empty cell (e.g. not-yet-bound recursion)
                closure.append((False, None))
    module = fn.__module__ or ""
    extra = None
    if module in ("", "__main__", "__mp_main__"):
        # the defining module cannot be re-imported in the worker:
        # capture the referenced globals by value instead
        g = fn.__globals__
        extra = {n: g[n] for n in _global_names(fn.__code__) if n in g}
        if g.get("__package__"):
            extra["__package__"] = g["__package__"]  # relative imports
    return (
        _rebuild_function,
        (
            marshal.dumps(fn.__code__),
            module,
            fn.__name__,
            fn.__qualname__,
            fn.__defaults__,
            fn.__kwdefaults__,
            closure,
            extra,
        ),
    )


class _SpmdPickler(pickle.Pickler):
    """Pickler that ships closures/nested functions and modules by value.

    Importable functions take the default by-reference path; everything
    else is reduced to (marshaled code, module name, cell values) and
    rebuilt in the worker with the defining module's globals.
    """

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _importable(obj):
                module = _real_module_name(obj)
                if module != obj.__module__:
                    # importable, but only under its spec name (the
                    # parent ran it as __main__ via ``python -m``)
                    return (_lookup_qualname, (module, obj.__qualname__))
                return NotImplemented  # default by-reference pickling
            return _reduce_function(obj)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        return NotImplemented


def dumps_obj(obj: Any) -> bytes:
    """Serialize with the closure-capable SPMD pickler."""
    buf = io.BytesIO()
    _SpmdPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


loads_obj = pickle.loads


# --------------------------------------------------------------------------
# payload <-> shared memory encoding


# Resource-tracker discipline: the spawn workers inherit the parent's
# tracker process, whose cache is a *set* of names.  Attaching registers
# a name too (3.11 behavior) but that is a set-add no-op, so the rule is
# simply: exactly one unlink per segment, by its designated owner, and
# never an explicit unregister — the unlink's built-in unregister
# balances the set, and a crash leaves the name for the tracker's
# leak cleanup.


def _close_seg(seg, unlink: bool) -> None:
    try:
        seg.close()
    except Exception:
        pass
    if unlink:
        try:
            seg.unlink()
        except Exception:
            pass


def _make_spill(a: np.ndarray):
    seg = shared_memory.SharedMemory(create=True, size=a.nbytes)
    dst = np.frombuffer(seg.buf, dtype=a.dtype, count=a.size).reshape(a.shape)
    np.copyto(dst, a)
    return seg


def _pack_tree(obj: Any, arrays: list, threshold: int):
    """Payload -> descriptor tree; large clean ndarrays are pulled out
    into ``arrays`` and replaced by index leaves (mirrors the container
    walk of ``simcomm._copy_payload``, so copy semantics line up)."""
    if (
        isinstance(obj, np.ndarray)
        and obj.nbytes >= threshold
        and not obj.dtype.hasobject
    ):
        a = np.ascontiguousarray(obj)
        arrays.append(a)
        return ("a", len(arrays) - 1, a.dtype, a.shape)
    if isinstance(obj, list):
        return ("l", [_pack_tree(x, arrays, threshold) for x in obj])
    if isinstance(obj, tuple):
        return ("t", [_pack_tree(x, arrays, threshold) for x in obj])
    if isinstance(obj, dict):
        return ("d", [(k, _pack_tree(v, arrays, threshold)) for k, v in obj.items()])
    return ("p", obj)


def _rewrite(tree, leafmap):
    kind = tree[0]
    if kind == "a":
        return leafmap[tree[1]]
    if kind in ("l", "t"):
        return (kind, [_rewrite(x, leafmap) for x in tree[1]])
    if kind == "d":
        return ("d", [(k, _rewrite(v, leafmap)) for k, v in tree[1]])
    return tree


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _deposit_region(obj: Any, mv: memoryview, seq: int) -> list:
    """Serialize ``obj`` into one parity region: header, pickled
    descriptor, then raw array data packed downward from the region top.
    Arrays that do not fit spill to one-shot segments (returned for
    deferred unlink by the creator)."""
    arrays: list = []
    tree = _pack_tree(obj, arrays, _INLINE_MAX)
    cap = len(mv)
    hi = cap
    leafmap: dict = {}
    spills: list = []
    placed: list = []  # (array index, offset, aligned size), top-down order
    for i in sorted(range(len(arrays)), key=lambda k: -arrays[k].nbytes):
        need = _align_up(arrays[i].nbytes)
        if hi - need >= _HEADER.size:
            hi -= need
            leafmap[i] = ("A", hi, arrays[i].dtype, arrays[i].shape)
            placed.append((i, hi, need))
        else:
            seg = _make_spill(arrays[i])
            spills.append(seg)
            leafmap[i] = ("S", seg.name, arrays[i].dtype, arrays[i].shape)
    while True:
        desc = dumps_obj(_rewrite(tree, leafmap))
        if _HEADER.size + len(desc) <= hi:
            break
        if placed:
            # descriptor collides with the lowest-placed array: evict it
            i, off, need = placed.pop()
            hi += need
            seg = _make_spill(arrays[i])
            spills.append(seg)
            leafmap[i] = ("S", seg.name, arrays[i].dtype, arrays[i].shape)
            continue
        # nothing left to evict: the descriptor itself goes indirect
        blob = desc
        seg = shared_memory.SharedMemory(create=True, size=len(blob))
        seg.buf[: len(blob)] = blob
        spills.append(seg)
        desc = dumps_obj(("I", seg.name, len(blob)))
        break
    _HEADER.pack_into(mv, 0, seq, len(desc))
    mv[_HEADER.size : _HEADER.size + len(desc)] = desc
    for i, off, _need in placed:
        a = arrays[i]
        if a.nbytes:
            dst = np.frombuffer(mv, dtype=a.dtype, count=a.size, offset=off)
            np.copyto(dst.reshape(a.shape), a)
    return spills


def _unpack_tree(t, mv, attach: Callable):
    kind = t[0]
    if kind == "p":
        return t[1]
    if kind == "A":
        _, off, dt, shape = t
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return np.frombuffer(mv, dtype=dt, count=n, offset=off).reshape(shape)
    if kind == "S":
        _, name, dt, shape = t
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return np.frombuffer(attach(name), dtype=dt, count=n).reshape(shape)
    if kind in ("l", "t"):
        items = [_unpack_tree(x, mv, attach) for x in t[1]]
        return items if kind == "l" else tuple(items)
    if kind == "d":
        return {k: _unpack_tree(v, mv, attach) for k, v in t[1]}
    raise ValueError(f"bad descriptor leaf {t!r}")


def _decode_region(mv: memoryview, expect_seq: int, attach: Callable):
    seq, dlen = _HEADER.unpack_from(mv, 0)
    if seq != expect_seq:
        raise SpmdAbort(
            f"shared-memory slot discipline violated: region seq {seq}, "
            f"expected {expect_seq}"
        )
    desc = loads_obj(bytes(mv[_HEADER.size : _HEADER.size + dlen]))
    if isinstance(desc, tuple) and desc and desc[0] == "I":
        desc = loads_obj(bytes(attach(desc[1])[: desc[2]]))
    return _unpack_tree(desc, mv, attach)


def _take_spill(name: str) -> bytearray:
    """Copy a received p2p spill segment into memory the receiver owns,
    then unlink it (the receiver is the segment's designated owner)."""
    seg = shared_memory.SharedMemory(name=name)
    data = bytearray(seg.buf)
    _close_seg(seg, unlink=True)
    return data


def _discard_tree(t) -> None:
    """Unlink the spill segments of a never-consumed p2p descriptor."""
    kind = t[0]
    if kind == "S":
        try:
            seg = shared_memory.SharedMemory(name=t[1])
            _close_seg(seg, unlink=True)
        except Exception:
            pass
    elif kind in ("l", "t"):
        for x in t[1]:
            _discard_tree(x)
    elif kind == "d":
        for _k, v in t[1]:
            _discard_tree(v)


# --------------------------------------------------------------------------
# the worker-side world


class _ProcSlots:
    """``SimWorld._slots`` facade: ``slots[rank] = obj`` deposits into
    this rank's shared-memory parity region, ``list(slots)`` decodes
    every rank's deposit (zero-copy array views)."""

    __slots__ = ("_w",)

    def __init__(self, world: "ProcWorld"):
        self._w = world

    def __len__(self) -> int:
        return self._w.nranks

    def __setitem__(self, rank: int, obj: Any) -> None:
        if rank != self._w.rank:
            raise ValueError(
                f"rank {self._w.rank} cannot deposit into slot {rank}"
            )
        self._w._deposit(obj)

    def __iter__(self):
        return iter(self._w._read_all())


class ProcWorld:
    """Per-worker facade duck-typing :class:`~repro.parallel.simcomm.SimWorld`.

    Lives inside one worker process, bound to that process's rank.  The
    barrier is a real ``multiprocessing.Barrier`` (same API and
    ``BrokenBarrierError`` semantics as ``threading.Barrier``, so
    CheckedComm's timed metadata barriers work unchanged); the slot array
    is the shared-memory ring; ``abort`` propagates through a shared
    event plus barrier poisoning.
    """

    def __init__(self, rank, nranks, barrier, abort_event, mail_queues, rings, run_id):
        self.rank = rank
        self.nranks = nranks
        self._barrier = barrier
        self._abort_event = abort_event
        self._mail_queues = mail_queues
        self._inbox = mail_queues[rank]
        self._rings = rings
        self._ring_half = _RING_BYTES // 2
        self._run_id = run_id
        self._slots = _ProcSlots(self)
        self._seq = 0
        self._local_error: BaseException | None = None
        self._channels: dict = {}  # (src, tag) -> deque of received payloads
        self._spills_in: dict = {}  # seq -> attached segments (close at retire)
        self._spills_out: dict = {}  # seq -> created segments (unlink at retire)

    # -- SimWorld surface ---------------------------------------------------

    @property
    def _error(self) -> BaseException | None:
        if self._local_error is not None:
            return self._local_error
        if self._abort_event.is_set():
            return SpmdAbort("another rank aborted")
        return None

    def abort(self, exc: BaseException) -> None:
        if self._local_error is None:
            self._local_error = exc
        self._abort_event.set()
        self._barrier.abort()

    def wait_barrier(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise SpmdAbort("another rank aborted") from None

    # -- collective slot transport -----------------------------------------

    def _region(self, rank: int, seq: int) -> memoryview:
        base = (seq % 2) * self._ring_half
        return self._rings[rank].buf[base : base + self._ring_half]

    def _deposit(self, obj: Any) -> None:
        if self._error is not None:
            raise SpmdAbort("another rank aborted")
        self._retire_collective(self._seq - 2)
        self._spills_out[self._seq] = _deposit_region(
            obj, self._region(self.rank, self._seq), self._seq
        )
        self._seq += 1

    def _read_all(self) -> list:
        seq = self._seq - 1
        segs = self._spills_in.setdefault(seq, [])

        def attach(name):
            seg = shared_memory.SharedMemory(name=name)
            segs.append(seg)
            return seg.buf

        return [
            _decode_region(self._region(r, seq), seq, attach)
            for r in range(self.nranks)
        ]

    def _retire_collective(self, upto: int) -> None:
        # a parity region (and its spills) may be retired once the world
        # is two exchanges past it: every reader's defensive copies have
        # completed before it could reach exchange upto+2
        for store, unlink in ((self._spills_in, False), (self._spills_out, True)):
            for s in [s for s in store if s <= upto]:
                for seg in store.pop(s):
                    _close_seg(seg, unlink=unlink)

    # -- point-to-point transport ------------------------------------------

    def post(self, src: int, dest: int, tag: int, obj: Any) -> None:
        if self._error is not None:
            raise SpmdAbort("another rank aborted")
        arrays: list = []
        tree = _pack_tree(obj, arrays, _P2P_SPILL_MIN)
        leafmap = {}
        # lint: allow-loop — O(spilled arrays per message), each a segment syscall
        for i, a in enumerate(arrays):
            seg = _make_spill(a)
            leafmap[i] = ("S", seg.name, a.dtype, a.shape)
            # ownership transfers to the receiver (it closes and unlinks)
            seg.close()
        self._mail_queues[dest].put(
            (self._run_id, src, tag, dumps_obj(_rewrite(tree, leafmap)))
        )

    def fetch(self, src: int, dest: int, tag: int, timeout: float | None = None) -> Any:
        key = (src, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            chan = self._channels.get(key)
            if chan:
                return chan.popleft()
            if self._error is not None:
                raise SpmdAbort("another rank aborted")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"no message on channel {(src, dest, tag)}")
            try:
                rid, msrc, mtag, blob = self._inbox.get(timeout=0.05)
            except _queue.Empty:
                continue
            tree = loads_obj(blob)
            if rid != self._run_id:
                _discard_tree(tree)  # stale message from an aborted run
                continue
            self._channels.setdefault((msrc, mtag), deque()).append(
                _unpack_tree(tree, None, _take_spill)
            )

    # -- teardown -----------------------------------------------------------

    def _finalize_task(self) -> None:
        self._retire_collective(self._seq)


# --------------------------------------------------------------------------
# worker process


def _capture_timer(comm) -> dict | None:
    """If the kernel left an obs PhaseTimer bound, gather its snapshots
    (parent-side ``obs.generate_report`` / ``imbalance`` consume them)."""
    try:
        from ..obs import timer as obs_timer

        t = obs_timer.active()
        if t is None:
            return None
        obs_timer.disable()
        return {"results": t.results(), "trace": t.trace_data()}
    except Exception:
        return None


def _apply_env(env: dict) -> None:
    for k, v in env.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v


def _execute_task(rank, nranks, run_id, spec, barrier, abort_event, mail_queues, rings):
    """Run one envelope; returns (status, payload)."""
    world = ProcWorld(rank, nranks, barrier, abort_event, mail_queues, rings, run_id)
    _apply_env(spec["env"])
    simcomm.set_comm_factory(spec["factory"])
    simcomm._arm_fault_spec(spec["fault"])
    comm = simcomm._resolve_comm_factory()(world, rank)
    status, payload = "ok", None
    try:
        try:
            result = spec["fn"](comm, *spec["args"], **spec["kwargs"])
        finally:
            comm._finalize()
            timer = _capture_timer(comm)
        payload = {"result": result, "stats": comm.stats.snapshot(), "timer": timer}
    except SpmdAbort:
        status = "abort"
    except BaseException as exc:  # noqa: BLE001 - shipped back to the parent
        world.abort(exc)
        status, payload = "error", exc
    finally:
        world._finalize_task()
        simcomm.set_comm_factory(None)
        simcomm.disarm_fault()
    return status, payload


def _worker_main(rank, nranks, barrier, abort_event, task_q, reply_q, mail_queues,
                 ring_names, parent_path):
    """Long-lived worker loop: attach rings once, then run envelopes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.path[:0] = [p for p in parent_path if p not in sys.path]
    # a kernel calling run_spmd inside a worker must not spawn nested pools
    os.environ["REPRO_SPMD_BACKEND"] = "thread"
    rings = []
    for name in ring_names:
        seg = shared_memory.SharedMemory(name=name)
        rings.append(seg)
    while True:
        task = task_q.get()
        if task is None:
            break
        run_id, blob = task
        try:
            spec = loads_obj(blob)
            status, payload = _execute_task(
                rank, nranks, run_id, spec, barrier, abort_event, mail_queues, rings
            )
        except BaseException as exc:  # noqa: BLE001 - infrastructure failure
            abort_event.set()
            barrier.abort()
            status, payload = "error", exc
        try:
            out = dumps_obj(payload)
        except Exception as enc_exc:
            if status == "ok":
                status = "error"
                payload = RuntimeError(f"unpicklable kernel result: {enc_exc}")
            else:
                payload = RuntimeError(f"{type(payload).__name__}: {payload}")
            out = dumps_obj(payload)
        reply_q.put((rank, run_id, status, out))
    for seg in rings:
        _close_seg(seg, unlink=False)


# --------------------------------------------------------------------------
# parent-side pool


class _ProcPool:
    """``nranks`` long-lived spawn workers plus their shared plumbing."""

    def __init__(self, nranks: int):
        ctx = mp.get_context("spawn")
        self.nranks = nranks
        self.barrier = ctx.Barrier(nranks)
        self.abort_event = ctx.Event()
        self.task_qs = [ctx.SimpleQueue() for _ in range(nranks)]
        self.reply_q = ctx.Queue()
        self.mail_qs = [ctx.Queue() for _ in range(nranks)]
        self.rings = [
            shared_memory.SharedMemory(create=True, size=_RING_BYTES)
            for _ in range(nranks)
        ]
        self.procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    r,
                    nranks,
                    self.barrier,
                    self.abort_event,
                    self.task_qs[r],
                    self.reply_q,
                    self.mail_qs,
                    [s.name for s in self.rings],
                    list(sys.path),
                ),
                name=f"procomm-rank-{r}",
                daemon=True,
            )
            for r in range(nranks)
        ]
        for p in self.procs:
            p.start()
        self.run_counter = 0
        self.broken = False
        self._lock = threading.Lock()

    def run_task(self, fn, args, kwargs) -> dict:
        """Dispatch one envelope to every rank; returns
        ``{rank: (status, payload)}`` after all ranks reply."""
        with self._lock:
            self.run_counter += 1
            run_id = self.run_counter
            spec = {
                "fn": fn,
                "args": args,
                "kwargs": kwargs,
                "factory": simcomm.get_comm_factory(),
                "env": {k: os.environ.get(k) for k in _ENV_KEYS},
                "fault": simcomm.armed_fault(),
            }
            blob = dumps_obj(spec)
            for q in self.task_qs:
                q.put((run_id, blob))
            replies: dict = {}
            while len(replies) < self.nranks:
                try:
                    rank, rid, status, payload = self.reply_q.get(timeout=1.0)
                except _queue.Empty:
                    dead = [p.name for p in self.procs if not p.is_alive()]
                    if dead:
                        self.broken = True
                        self.abort_event.set()
                        self.barrier.abort()
                        raise RuntimeError(
                            f"SPMD worker process(es) died: {dead}"
                        ) from None
                    continue
                if rid != run_id:
                    continue  # straggler reply from an abandoned run
                replies[rank] = (status, loads_obj(payload))
            self._drain_mail()
            if any(s != "ok" for s, _ in replies.values()):
                # broken barrier / set abort flag: reset while all workers
                # idle in task_q.get() (they replied, so they are past it)
                self.abort_event.clear()
                self.barrier.reset()
            return replies

    def _drain_mail(self) -> None:
        """Discard undelivered p2p messages (and unlink their spills)."""
        for q in self.mail_qs:
            while True:
                try:
                    _rid, _src, _tag, blob = q.get_nowait()
                except _queue.Empty:
                    break
                except Exception:
                    break
                try:
                    _discard_tree(loads_obj(blob))
                except Exception:
                    pass

    def shutdown(self) -> None:
        for q in self.task_qs:
            try:
                q.put(None)
            except Exception:
                pass
        for p in self.procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for seg in self.rings:
            _close_seg(seg, unlink=True)


_POOLS: dict[int, _ProcPool] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(nranks: int) -> _ProcPool:
    with _POOLS_LOCK:
        pool = _POOLS.get(nranks)
        if pool is not None and pool.broken:
            pool.shutdown()
            pool = None
        if pool is None:
            pool = _POOLS[nranks] = _ProcPool(nranks)
        return pool


def shutdown_pools() -> None:
    """Terminate every cached worker pool and unlink its rings."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


_AVAILABLE: bool | None = None


def available() -> bool:
    """Can this host run the process backend (POSIX shared memory works)?"""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=64)
            _close_seg(seg, unlink=True)
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


# --------------------------------------------------------------------------
# entry point (called by run_spmd / run_spmd_with_comms)


class ProcCommProxy:
    """Post-run stand-in for a worker rank's communicator.

    Carries the worker's gathered :class:`~repro.parallel.stats.CommStats`
    (``.stats``) plus ``rank``/``size``, so parent-side consumers of
    ``run_spmd_with_comms`` (perf harness, examples, obs reports) work
    identically across backends.  ``timer_results`` / ``trace_data`` hold
    the snapshots of an obs PhaseTimer the kernel left bound, else None.
    """

    def __init__(self, rank: int, size: int, stats, timer: dict | None):
        self.rank = rank
        self.size = size
        self.stats = stats
        self.timer_results = (timer or {}).get("results")
        self.trace_data = (timer or {}).get("trace")


def run_spmd_process(nranks: int, fn, args=(), kwargs=None):
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` worker processes.

    Returns ``(results, proxies)`` in rank order, mirroring
    :func:`~repro.parallel.simcomm.run_spmd_with_comms`.  The first
    failing rank's exception is re-raised in the parent, with the
    fire-once fault-injection contract preserved across the process
    boundary.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if not available():
        raise RuntimeError(
            "process SPMD backend unavailable: POSIX shared memory cannot "
            "be created on this host (use backend='thread')"
        )
    replies = _get_pool(nranks).run_task(fn, tuple(args), dict(kwargs or {}))
    errors = [p for _r, (s, p) in sorted(replies.items()) if s == "error"]
    if errors:
        exc = errors[0]
        if isinstance(exc, InjectedFault):
            simcomm._mark_fault_fired()
        raise exc
    aborted = [r for r, (s, _p) in replies.items() if s == "abort"]
    if aborted:
        raise SpmdAbort(
            f"worker rank(s) {sorted(aborted)} aborted without a recorded error"
        )
    results = [replies[r][1]["result"] for r in range(nranks)]
    proxies = [
        ProcCommProxy(r, nranks, replies[r][1]["stats"], replies[r][1]["timer"])
        for r in range(nranks)
    ]
    return results, proxies
