"""Uncalled-function probe: the ``src/repro`` functions no run enters.

``src/`` should hold what a run executes; oracles and references live in
``tests/``.  This probe makes that measurable.  It runs ten targets, the
five benchmark workloads at ``--smoke`` size and the five examples, each
in a fresh subprocess inside a temporary directory, with
:func:`sys.setprofile` and :func:`threading.setprofile` recording every
Python function entered (thread ranks included).  An :mod:`ast` walk of
``src/repro`` lists the outermost functions: module-level functions and
methods of module-level classes, not functions nested in a function.
Every outermost function that no target enters is *uncalled*, keyed
``module:qualname`` (``repro.mesh.parmesh:ParMesh.exchange_sum``), so a
key survives edits above it.

Uncalled is not dead: the sanitizer, the fault-injection hook, the
error classes and the test references are entered only by tier-1 tests.

The same profile checks the options of the functions a run does enter.
For every defaulted parameter of an entered outermost function it
records whether any call passed a value other than the default (not the
default object, and not ``==`` to it as a true scalar).  A parameter no
call overrides is *unset*, keyed ``module:qualname(param)``: an option
that exists where no two runs set different values, which is a constant
(DESIGN.md, "An option exists where two runs set different values").

The grandfathered keys of both kinds live in ``uncalled_baseline.json``
at the repo root (``"uncalled"`` and ``"unset"``), the way
``lint_baseline.json`` holds lint findings; an uncalled function or an
unset option that is not in the baseline fails ``--baseline``.  A new
capability or option therefore lands with a caller in a run, or with a
baseline entry that a reviewer reads.

Usage (repo root; numpy and scipy installed)::

    python tools/uncalled.py                   # list uncalled functions and unset options
    python tools/uncalled.py --baseline        # exit 1 on any not baselined
    python tools/uncalled.py --write-baseline  # regenerate the baseline

Stdlib-only itself; the targets need the package's dependencies.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "TARGETS",
    "Function",
    "Recording",
    "outermost_functions",
    "record_entries",
    "uncalled",
    "unset_options",
    "load_baseline",
    "write_baseline",
    "main",
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_BASELINE = "uncalled_baseline.json"

_SMOKE = ["--smoke", "--seconds", "2"]

# name -> (kind, what, argument): "bench" runs ``python3 -m bench`` with the
# argument list, "script" runs an example as ``__main__``, "main" imports an
# example and calls its ``main(**argument)``.
TARGETS: dict[str, tuple[str, str, object]] = {
    "convect_amg": ("bench", "bench", ["--workload", "convect_amg", *_SMOKE]),
    "convect_gmg": ("bench", "bench", ["--workload", "convect_gmg", *_SMOKE]),
    "amr_front_p2": ("bench", "bench", ["--workload", "amr_front_p2", *_SMOKE]),
    "fleet_sweep": ("bench", "bench", ["--workload", "fleet_sweep", *_SMOKE]),
    "dg_sphere": ("bench", "bench", ["--workload", "dg_sphere", *_SMOKE]),
    "quickstart": ("script", "examples/quickstart.py", None),
    "parallel_amr": ("main", "examples/parallel_amr.py", {"p": 2}),
    "spherical_advection": ("script", "examples/spherical_advection.py", None),
    "mantle_yielding": (
        "main",
        "examples/mantle_yielding.py",
        {"cycles": 1, "initial_level": 2, "max_level": 3, "target_elements": 200},
    ),
    "fleet": ("script", "examples/fleet.py", None),
}


# -- the static side: every outermost function -------------------------------


@dataclass(frozen=True)
class Function:
    """One outermost function: its file relative to the source root, its
    line span (``first`` is the first decorator's line, which is the
    ``co_firstlineno`` of the function's code object) and the names of
    its parameters that have a default (its options)."""

    path: str
    first: int
    last: int
    options: tuple[str, ...]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(rel: Path) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _options(args: ast.arguments) -> tuple[str, ...]:
    """Names of the parameters with a default value."""
    pos = [a.arg for a in args.posonlyargs + args.args]
    named = pos[len(pos) - len(args.defaults):] if args.defaults else []
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple(named)


def _walk(body, prefix: str, rel: str, out: dict[str, Function], mod: str) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[f"{mod}:{prefix}{node.name}"] = Function(
                rel, first, node.end_lineno, _options(node.args)
            )
        elif isinstance(node, ast.ClassDef):
            _walk(node.body, f"{prefix}{node.name}.", rel, out, mod)
        else:
            # functions defined under if / try / with at module or class level
            for field in ("body", "orelse", "finalbody", "handlers"):
                sub = getattr(node, field, None)
                if isinstance(sub, list):
                    _walk(sub, prefix, rel, out, mod)


def outermost_functions(src: Path = SRC, package: str = "repro") -> dict[str, Function]:
    """``{module:qualname: Function}`` for every function of ``package``
    under ``src`` that is not nested inside another function."""
    out: dict[str, Function] = {}
    for f in sorted((src / package).rglob("*.py")):
        rel = f.relative_to(src)
        tree = ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
        _walk(tree.body, "", rel.as_posix(), out, _module_name(rel))
    return out


# -- the dynamic side: every function a run enters ---------------------------


@dataclass
class Recording:
    """What :func:`record_entries` saw in the files under its source
    root: ``entries``, the ``(path, first_line)`` of every function
    entered, and ``overridden``, the ``(path, first_line, parameter)`` of
    each watched option that some call passed a non-default value."""

    entries: set = field(default_factory=set)
    overridden: set = field(default_factory=set)


def _is_default(value, default) -> bool:
    """``value`` is ``default``, or ``==`` to it as a true scalar (an
    array compared elementwise, or an ``==`` that raises, is a different
    value)."""
    if value is default:
        return True
    try:
        eq = value == default
    except Exception:
        return False
    return (isinstance(eq, bool) or getattr(eq, "shape", None) == ()) and bool(eq)


def _defaults(code) -> dict:
    """``{parameter: default}`` of the function whose code is ``code``
    (found once per code object among the code's referrers), or ``{}``."""
    fn = next(
        (r for r in gc.get_referrers(code)
         if isinstance(r, types.FunctionType) and r.__code__ is code),
        None,
    )
    if fn is None:
        return {}
    pos = code.co_varnames[: code.co_argcount]
    vals = fn.__defaults__ or ()
    out = dict(zip(pos[len(pos) - len(vals):], vals))
    out.update(fn.__kwdefaults__ or {})
    return out


@contextlib.contextmanager
def record_entries(src: Path = SRC, functions: dict[str, Function] | None = None):
    """Record the Python functions entered in this process, in every
    thread started inside the block, as a :class:`Recording` of files
    under ``src`` (filled in when the block exits).  The options of
    ``functions`` (outermost functions under ``src``) are watched: each
    call compares its arguments with the defaults until every one has
    been overridden."""
    root = os.path.realpath(src)
    watch = {(f.path, f.first) for f in (functions or {}).values() if f.options}
    # id(code) -> [code, rel path, the watched options not yet overridden]
    seen: dict[int, list] = {}
    rec = Recording()

    def first_sight(code) -> list:
        path = os.path.realpath(code.co_filename)
        rel = None
        if path.startswith(root + os.sep):
            rel = Path(os.path.relpath(path, root)).as_posix()
        todo = _defaults(code) if (rel, code.co_firstlineno) in watch else {}
        return [code, rel, todo]  # holding the code keeps its id unique

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        slot = seen.get(id(code))
        if slot is None:
            slot = seen[id(code)] = first_sight(code)
        todo = slot[2]
        if todo:
            args = frame.f_locals
            for name, default in list(todo.items()):
                if not _is_default(args.get(name, default), default):
                    todo.pop(name, None)
                    rec.overridden.add((slot[1], code.co_firstlineno, name))

    old = sys.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield rec
    finally:
        sys.setprofile(old)
        threading.setprofile(None)
        for code, rel, _ in seen.values():
            if rel is not None:
                rec.entries.add((rel, code.co_firstlineno))


def uncalled(functions: dict[str, Function], entries) -> list[str]:
    """Sorted keys of the functions whose code no entry names."""
    hit = set(entries)
    return sorted(k for k, f in functions.items() if (f.path, f.first) not in hit)


def unset_options(functions: dict[str, Function], entries, overridden) -> list[str]:
    """Sorted ``module:qualname(param)`` keys of the options of entered
    functions that no call overrode."""
    hit, done = set(entries), set(overridden)
    return sorted(
        f"{k}({name})"
        for k, f in functions.items() if (f.path, f.first) in hit
        for name in f.options if (f.path, f.first, name) not in done
    )


def _run_target(name: str, out: str) -> None:
    """Child process: run one target under :func:`record_entries`,
    watching the options of every outermost function, and write the
    recording as JSON to ``out``."""
    import runpy

    kind, what, arg = TARGETS[name]
    with record_entries(functions=outermost_functions()) as rec:
        try:
            if kind == "bench":
                sys.argv = ["bench", *arg]
                runpy.run_module("bench", run_name="__main__", alter_sys=True)
            elif kind == "script":
                sys.argv = [what]
                runpy.run_path(str(ROOT / what), run_name="__main__")
            else:
                runpy.run_path(str(ROOT / what), run_name="uncalled")["main"](**arg)
        except SystemExit as e:
            if e.code not in (None, 0):
                raise
    doc = {"entries": sorted(rec.entries), "overridden": sorted(rec.overridden)}
    Path(out).write_text(json.dumps(doc), encoding="utf-8")


def probe(names=None) -> Recording:
    """Run each target in a fresh subprocess inside a temporary
    directory; the union of their recordings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    union = Recording()
    for name in names or TARGETS:
        with tempfile.TemporaryDirectory(prefix="uncalled-") as tmp:
            out = os.path.join(tmp, "entries.json")
            code = f"from tools.uncalled import _run_target; _run_target({name!r}, {out!r})"
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", code], cwd=tmp, env=env,
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                tail = "\n".join(done.stderr.splitlines()[-20:])
                raise RuntimeError(f"target {name} failed ({done.returncode}):\n{tail}")
            doc = json.loads(Path(out).read_text(encoding="utf-8"))
            got = {tuple(e) for e in doc["entries"]}
            print(f"  {name:<20} {len(got):5d} functions entered "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
            union.entries |= got
            union.overridden |= {tuple(o) for o in doc["overridden"]}
    return union


# -- baseline ------------------------------------------------------------------


def load_baseline(path: str | Path) -> dict[str, set[str]]:
    """``{"uncalled": function keys, "unset": option keys}``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {kind: set(data.get(kind, [])) for kind in ("uncalled", "unset")}


def write_baseline(keys, unset, path: str | Path) -> None:
    payload = {
        "comment": (
            "src/repro functions that no benchmark workload or example enters, "
            "and options (defaulted parameters) of entered functions that none "
            "of them overrides (tools/uncalled.py). A key missing here fails "
            "--baseline; regenerate with: python tools/uncalled.py --write-baseline"
        ),
        "uncalled": sorted(keys),
        "unset": sorted(unset),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# -- CLI -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python tools/uncalled.py",
        description="List the src/repro functions that no workload or example enters, "
                    "and the options of the entered ones that none of them overrides.",
    )
    ap.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE, default=None, metavar="PATH",
        help=f"exit 1 on an uncalled function or unset option not in the baseline "
             f"(default path: {DEFAULT_BASELINE})",
    )
    ap.add_argument(
        "--write-baseline", nargs="?", const=DEFAULT_BASELINE, default=None,
        metavar="PATH", help="write the uncalled functions and unset options as the new baseline",
    )
    args = ap.parse_args(argv)

    functions = outermost_functions()
    print(f"probing {len(TARGETS)} targets:", file=sys.stderr)
    rec = probe()
    keys = uncalled(functions, rec.entries)
    unset = unset_options(functions, rec.entries, rec.overridden)
    n_lines = sum(functions[k].lines for k in keys)
    none = set(keys)
    n_options = sum(len(f.options) for k, f in functions.items() if k not in none)
    summary = (f"{len(keys)} of {len(functions)} outermost functions "
               f"({n_lines} lines) are entered by no target; {len(unset)} of the "
               f"{n_options} options of the entered ones are overridden by none")

    if args.write_baseline:
        write_baseline(keys, unset, args.write_baseline)
        print(f"{summary}; wrote {args.write_baseline}")
        return 0
    if args.baseline is None:
        for k in keys:
            f = functions[k]
            print(f"{k}  (src/{f.path}:{f.first}, {f.lines} lines)")
        for k in unset:
            f = functions[k[: k.index("(")]]
            print(f"{k}  (src/{f.path}:{f.first}, option)")
        print(summary)
        return 0
    if not Path(args.baseline).exists():
        print(f"error: baseline file {args.baseline!r} not found", file=sys.stderr)
        return 2
    base = load_baseline(args.baseline)
    fresh = [k for k in keys if k not in base["uncalled"]]
    for k in fresh:
        f = functions[k]
        print(f"src/{f.path}:{f.first}: {k} is entered by no workload or example "
              f"and is not in {args.baseline}")
    fresh_unset = [k for k in unset if k not in base["unset"]]
    for k in fresh_unset:
        f = functions[k[: k.index("(")]]
        print(f"src/{f.path}:{f.first}: option {k} is overridden by no workload or "
              f"example and is not in {args.baseline} (make it a constant)")
    stale = sorted((base["uncalled"] - set(keys)) | (base["unset"] - set(unset)))
    if stale:
        print(f"note: {len(stale)} baseline entries are now entered, set or gone "
              f"(regenerate with --write-baseline): {', '.join(stale)}")
    print(f"{summary}; {len(fresh)} functions and {len(fresh_unset)} options "
          f"not in the baseline")
    return 1 if fresh or fresh_unset else 0


if __name__ == "__main__":
    sys.exit(main())
