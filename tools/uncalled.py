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
error classes and the test references are entered only by tier-1 tests.  The
grandfathered keys live in ``uncalled_baseline.json`` at the repo root,
the way ``lint_baseline.json`` holds lint findings; a function that is
uncalled and not in the baseline fails ``--baseline``.  A new capability
therefore lands with a caller in a run, or with a baseline entry that a
reviewer reads.

Usage (repo root; numpy and scipy installed)::

    python tools/uncalled.py                   # list uncalled functions
    python tools/uncalled.py --baseline        # exit 1 on any not baselined
    python tools/uncalled.py --write-baseline  # regenerate the baseline

Stdlib-only itself; the targets need the package's dependencies.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "TARGETS",
    "Function",
    "outermost_functions",
    "record_entries",
    "uncalled",
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
    """One outermost function: its file relative to the source root and
    its line span (``first`` is the first decorator's line, which is the
    ``co_firstlineno`` of the function's code object)."""

    path: str
    first: int
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(rel: Path) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _walk(body, prefix: str, rel: str, out: dict[str, Function], mod: str) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[f"{mod}:{prefix}{node.name}"] = Function(rel, first, node.end_lineno)
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


@contextlib.contextmanager
def record_entries(src: Path = SRC):
    """Record the Python functions entered in this process, in every
    thread started inside the block, as a set of ``(path, first_line)``
    pairs for files under ``src`` (filled in when the block exits)."""
    seen: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code  # holding the code keeps its id unique

    entries: set[tuple[str, int]] = set()
    old = sys.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield entries
    finally:
        sys.setprofile(old)
        threading.setprofile(None)
        root = os.path.realpath(src)
        for code in seen.values():
            path = os.path.realpath(code.co_filename)
            if path.startswith(root + os.sep):
                rel = Path(os.path.relpath(path, root)).as_posix()
                entries.add((rel, code.co_firstlineno))


def uncalled(functions: dict[str, Function], entries) -> list[str]:
    """Sorted keys of the functions whose code no entry names."""
    hit = set(entries)
    return sorted(k for k, f in functions.items() if (f.path, f.first) not in hit)


def _run_target(name: str, out: str) -> None:
    """Child process: run one target under :func:`record_entries` and
    write the entries as JSON to ``out``."""
    import runpy

    kind, what, arg = TARGETS[name]
    with record_entries() as entries:
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
    Path(out).write_text(json.dumps(sorted(entries)), encoding="utf-8")


def probe(names=None) -> set[tuple[str, int]]:
    """Run each target in a fresh subprocess inside a temporary
    directory; the union of their entries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    union: set[tuple[str, int]] = set()
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
            got = {tuple(e) for e in json.loads(Path(out).read_text(encoding="utf-8"))}
            print(f"  {name:<20} {len(got):5d} functions entered "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
            union |= got
    return union


# -- baseline ------------------------------------------------------------------


def load_baseline(path: str | Path) -> set[str]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return set(data["uncalled"])


def write_baseline(keys, path: str | Path) -> None:
    payload = {
        "comment": (
            "src/repro functions that no benchmark workload or example enters "
            "(tools/uncalled.py). A function missing here fails --baseline; "
            "regenerate with: python tools/uncalled.py --write-baseline"
        ),
        "uncalled": sorted(keys),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# -- CLI -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python tools/uncalled.py",
        description="List the src/repro functions that no workload or example enters.",
    )
    ap.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE, default=None, metavar="PATH",
        help=f"exit 1 on an uncalled function not in the baseline "
             f"(default path: {DEFAULT_BASELINE})",
    )
    ap.add_argument(
        "--write-baseline", nargs="?", const=DEFAULT_BASELINE, default=None,
        metavar="PATH", help="write the uncalled functions as the new baseline",
    )
    args = ap.parse_args(argv)

    functions = outermost_functions()
    print(f"probing {len(TARGETS)} targets:", file=sys.stderr)
    keys = uncalled(functions, probe())
    n_lines = sum(functions[k].lines for k in keys)
    summary = (f"{len(keys)} of {len(functions)} outermost functions "
               f"({n_lines} lines) are entered by no target")

    if args.write_baseline:
        write_baseline(keys, args.write_baseline)
        print(f"{summary}; wrote {args.write_baseline}")
        return 0
    if args.baseline is None:
        for k in keys:
            f = functions[k]
            print(f"{k}  (src/{f.path}:{f.first}, {f.lines} lines)")
        print(summary)
        return 0
    if not Path(args.baseline).exists():
        print(f"error: baseline file {args.baseline!r} not found", file=sys.stderr)
        return 2
    base = load_baseline(args.baseline)
    fresh = [k for k in keys if k not in base]
    for k in fresh:
        f = functions[k]
        print(f"src/{f.path}:{f.first}: {k} is entered by no workload or example "
              f"and is not in {args.baseline}")
    stale = sorted(base - set(keys))
    if stale:
        print(f"note: {len(stale)} baseline entries are now entered or gone "
              f"(regenerate with --write-baseline): {', '.join(stale)}")
    print(f"{summary}; {len(fresh)} not in the baseline")
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
