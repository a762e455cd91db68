"""Outside-in span tracer: wraps public entry points of ``repro`` from the
benchmark's side, records one span per call in memory, restores every
binding afterwards.

A span is ``[name, section, cycle, parent, start, end, probe]``: ``parent``
indexes the enclosing span on the same thread (-1 at top level),
``section`` is ``setup`` / ``timed`` / ``post``, ``probe`` is a tuple of
exact numbers read from the call's arguments or result (iterations, steps,
flops) or ``None``.  Self time is a span's duration minus the durations of
its direct children.  Each SPMD rank thread keeps its own log.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

_NAME, _SECTION, _CYCLE, _PARENT, _START, _END, _PROBE = range(7)

#: modules whose namespaces are searched for references to a wrapped
#: function (``from x import f`` copies the binding)
_REBIND_PREFIXES = ("repro", "bench")


class _ThreadLog:
    def __init__(self, rank: int):
        self.rank = rank
        self.spans: list = []
        self.stack: list = []
        self.section = "setup"
        self.cycle = -1


class _Totals:
    """Calls, inclusive and self seconds, and probe sums of one span name."""

    __slots__ = ("calls", "incl", "self_s", "probe")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.probe: tuple = ()


ZERO_TOTALS = _Totals()


class Tracer:
    """Records spans when ``enabled``; otherwise every method is a no-op
    and no wrapper is ever installed (the end-to-end pass)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._rebound: list = []  # (owner, attribute, original)
        self._wrappers: dict = {}  # id(wrapper) -> original

    # -- per-thread state -------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(rank=0)
            with self._lock:
                self._logs.append(log)
        return log

    def bind_rank(self, rank: int) -> None:
        """Label the calling thread's spans with its SPMD rank."""
        if self.enabled:
            self._log().rank = rank

    @contextmanager
    def section(self, name: str):
        if not self.enabled:
            yield
            return
        log = self._log()
        prev = log.section
        log.section = name
        try:
            yield
        finally:
            log.section = prev

    @contextmanager
    def span(self, name: str, cycle: int = -1):
        """A span recorded by the benchmark itself (around one cycle)."""
        if not self.enabled:
            yield
            return
        log = self._log()
        log.cycle = cycle
        rec = [name, log.section, cycle, log.stack[-1] if log.stack else -1,
               time.perf_counter(), 0.0, None]
        log.stack.append(len(log.spans))
        log.spans.append(rec)
        try:
            yield
        finally:
            rec[_END] = time.perf_counter()
            log.stack.pop()
            log.cycle = -1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, probe):
        log_of = self._log
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            rec = [name, log.section, log.cycle, stack[-1] if stack else -1,
                   clock(), 0.0, None]
            stack.append(len(log.spans))
            log.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    rec[_PROBE] = probe(args, kwargs, result)
                return result
            finally:
                rec[_END] = clock()
                stack.pop()

        traced.bench_span = name  # marks a wrapper (the self-tests look for leftovers)
        self._wrappers[id(traced)] = fn
        return traced

    def install(self, entry_points) -> None:
        """Wrap every ``(span, "module:attr" or "module:Class.method",
        probe)``.  A target that does not resolve is listed in
        ``unresolved`` and skipped, so a rename in the program costs one
        metric, not the benchmark."""
        if not self.enabled:
            return
        for span, target, probe in entry_points:
            mod_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = vars(owner)[attr]
                if not callable(original):
                    raise TypeError(target)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.unresolved.append(target)
                continue
            wrapper = self._wrap(span, original, probe)
            if parents:  # a method: rebind on its class
                self._rebind(owner, attr, original, wrapper)
                continue
            for m in self._modules():  # a function: every copy of the binding
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapper)

    @staticmethod
    def _modules():
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] in _REBIND_PREFIXES
        ]

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every binding, including copies made by modules that
        were first imported while the wrappers were installed."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()
        for m in self._modules():
            for key, value in list(vars(m).items()):
                original = self._wrappers.get(id(value))
                if original is not None:
                    setattr(m, key, original)
        self._wrappers.clear()

    # -- reading the spans ------------------------------------------------

    def n_spans(self, section: str | None = None) -> int:
        return sum(
            1 for log in self._logs for rec in log.spans
            if section is None or rec[_SECTION] == section
        )

    def count_under(self, ancestor: str, prefix: str, section: str, rank: int = 0) -> int:
        """Outermost spans named ``prefix*`` with an ``ancestor`` span
        somewhere above them (collectives issued inside one function)."""
        n = 0
        for log in self._logs:
            if log.rank != rank:
                continue
            for rec in log.spans:
                if rec[_SECTION] != section or not rec[_NAME].startswith(prefix):
                    continue
                parent = rec[_PARENT]
                if parent >= 0 and log.spans[parent][_NAME].startswith(prefix):
                    continue  # nested inside another collective
                while parent >= 0 and log.spans[parent][_NAME] != ancestor:
                    parent = log.spans[parent][_PARENT]
                n += parent >= 0
        return n

    def ranks(self) -> list[int]:
        return sorted({log.rank for log in self._logs})

    def totals(self, rank: int = 0) -> dict:
        """``{(section, name): _Totals}`` over the spans of one rank."""
        out: dict = {}
        for log in self._logs:
            if log.rank != rank:
                continue
            child = [0.0] * len(log.spans)
            for rec in log.spans:
                if rec[_PARENT] >= 0:
                    child[rec[_PARENT]] += rec[_END] - rec[_START]
            for rec, covered in zip(log.spans, child):
                t = out.setdefault((rec[_SECTION], rec[_NAME]), _Totals())
                dur = rec[_END] - rec[_START]
                t.calls += 1
                t.incl += dur
                t.self_s += dur - covered
                if rec[_PROBE] is not None:
                    p = rec[_PROBE]
                    t.probe = tuple(a + b for a, b in zip(t.probe, p)) if t.probe else tuple(p)
        return out

    def top_level_seconds(self, section: str, marker: str, rank: int = 0) -> float:
        """Summed duration of spans in ``section`` whose parent is absent or
        is the benchmark's own ``marker`` span."""
        total = 0.0
        for log in self._logs:
            if log.rank != rank:
                continue
            for rec in log.spans:
                if rec[_SECTION] != section or rec[_NAME] == marker:
                    continue
                parent = rec[_PARENT]
                if parent < 0 or log.spans[parent][_NAME] == marker:
                    total += rec[_END] - rec[_START]
        return total

    def span_cost_s(self, samples: int = 20000) -> float:
        """Measured cost of recording one span (a wrapped no-op, on a
        scratch tracer)."""
        scratch = Tracer(enabled=True)
        traced = scratch._wrap("calibration", lambda: None, None)
        plain = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(samples):
            traced()
        t1 = time.perf_counter()
        for _ in range(samples):
            plain()
        t2 = time.perf_counter()
        return max((t1 - t0) - (t2 - t1), 0.0) / samples

    def write_chrome_trace(self, path: str, workload: str) -> None:
        """Chrome-trace (Perfetto) JSON: one track per rank."""
        events = []
        for log in self._logs:
            for rec in log.spans:
                events.append({
                    "name": rec[_NAME], "ph": "X", "pid": 0, "tid": log.rank,
                    "ts": rec[_START] * 1e6,
                    "dur": (rec[_END] - rec[_START]) * 1e6,
                    "args": {"workload": workload, "section": rec[_SECTION],
                             "cycle": rec[_CYCLE], "parent": rec[_PARENT]},
                })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
