"""SPMD correctness linter: repo-specific static rules over the AST.

Generic linters cannot know that the vectorized hot kernels must not
regrow per-element Python loops, that checkpoint bytes must not depend
on dict or set order, or that an SPMD kernel must not read state armed
in the parent interpreter.  This module encodes those invariants as
five rules.  Collective symmetry, send/recv pairing and buffer
ownership are checked at runtime by
:class:`repro.parallel.sanitize.CheckedComm`, and cache purity (nobody
writes into a value :mod:`repro.mesh.opcache` hands out) by the freeze
guards of the same module under ``REPRO_SANITIZE=1``, not here.

Path-scoped rules name their scope in a module-level table: a file is
in scope when a directory of its path is in ``R3_PACKAGES`` /
``R5_PACKAGES`` / ``R6_PACKAGES``, or (R4) when its stem is in
``R4_MODULES``.

R3  **dtype discipline** (``R3_PACKAGES``) — ``np.array`` /
    ``np.zeros`` / ``np.empty`` without an explicit ``dtype``, and
    float32/float64 mixing through a literal-typed accumulator
    (``acc = 0.0`` then ``acc += f32_data``).

R4  **hot-loop hygiene** (``R4_MODULES``, the vectorized hot modules) —
    per-element Python ``for`` loops (``range(...)`` over a non-trivial
    bound, or ``enumerate(...)``) unless the line carries
    ``# lint: allow-loop``.

R5  **serialization determinism** (``R5_PACKAGES``) — iteration
    over ``dict.items()`` / ``.keys()`` / ``.values()`` (in ``for``
    statements or comprehensions) not wrapped in ``sorted(...)``, and
    iteration over ``set`` literals / ``set(...)`` values / set-typed
    names.  Checkpoint bytes and digests must not depend on dict
    insertion order or salted set order, which vary with code path,
    restart history, and interpreter run.

R6  **public-API docstrings** (``R6_PACKAGES``, the documented
    packages) — a module, top-level public class/function, or public
    method of a public class without a docstring.  Names starting with
    ``_`` (including dunders) and anything nested inside a function are
    exempt.  These packages are the user-facing surface; their API
    reference is the docstrings.

R10 **module-global mutable state read inside an SPMD kernel** — a
    function taking a comm-like parameter reads a module-level name
    bound to a mutable value (list/dict/set literal or constructor) or
    rebound through a ``global`` statement.  Thread ranks share one
    interpreter, so such reads happen to see the caller's writes; each
    rank of a distributed-memory run (``mpi4py``, the API ``SimComm``
    mirrors) holds its own copy of the module, so there the read sees
    stale state.  State a kernel needs must travel through its
    arguments or the communicator.  Dunders are exempt, and so are
    ALL_CAPS names that no function rebinds or writes into (read-only
    tables).

Suppression and baselining
--------------------------
``# lint: disable=R10`` (comma-separated rule ids) on the flagged line
suppresses a finding; ``# lint: allow-loop`` on the ``for`` line or the
line above suppresses R4.  Grandfathered findings live in a baseline
file (``lint_baseline.json`` at the repo root); a finding matches the
baseline by ``(file, rule, normalized source line)`` so it survives
unrelated line-number drift.  New findings fail the run.

Usage::

    python tools/lint.py src/ tools/                   # auto-loads ./lint_baseline.json
    python tools/lint.py src/ tools/ --baseline        # require the baseline file
    python tools/lint.py src/ tools/ --no-baseline     # full finding list
    python tools/lint.py src/ tools/ --write-baseline

Stdlib-only on purpose: CI lints before installing numpy/scipy.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "main",
    "RULES",
]

#: rule id -> short description (the catalog; mirrored in DESIGN.md)
RULES = {
    "R3": "missing explicit dtype / float32-float64 mixing in hot path",
    "R4": "per-element Python loop in a vectorized hot module",
    "R5": "unordered dict/set iteration while serializing state",
    "R6": "missing docstring on a public symbol in a documented package",
    "R10": "module-global mutable state read inside an SPMD kernel",
}

#: numpy constructors R3 requires an explicit dtype for
DTYPE_CTORS = {"array", "zeros", "empty"}

#: path fragments where R3 (dtype discipline) is enforced
R3_PACKAGES = ("fem", "solvers", "mangll")

#: module stems PR 1 vectorized — R4 (hot-loop hygiene) applies here;
#: matfree joined in PR 4 (the sum-factorized apply engine is the hottest
#: loop in the code and must stay loop-free outside annotated exceptions);
#: traverse / faces / recursive joined in PR 6 (the recursive forest
#: algorithms on the AMR hot path are breadth-first vectorized);
#: batch joined in PR 8 (the fleet's lockstep batched cycle is the
#: multi-tenant hot path — only annotated O(B) per-job loops allowed)
R4_MODULES = {
    "assembly",
    "amg",
    "gmg",
    "dg",
    "transfer",
    "matfree",
    "traverse",
    "faces",
    "recursive",
    "batch",
}

#: path fragments where R5 (serialization determinism) is enforced —
#: the state-serializing subsystem, where byte layout = dict order
R5_PACKAGES = ("checkpoint",)

#: path fragments where R6 (public-API docstrings) is enforced — the
#: user-facing instrumentation packages whose reference docs *are* the
#: docstrings (see OBSERVABILITY.md); fleet joined in PR 8 (the
#: multi-tenant service API is user-facing)
R6_PACKAGES = ("obs", "checkpoint", "fleet", "solvers")

#: dict-view methods whose iteration order is insertion order
DICT_VIEW_METHODS = {"items", "keys", "values"}

_SMALL_RANGE = 8  # `for a in range(3)` (components, corners) is not per-element

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9,\s]+)")
_ALLOW_LOOP_RE = re.compile(r"#\s*lint:\s*allow-loop")


@dataclass(frozen=True)
class Finding:
    """One linter finding, stable across runs."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str

    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity: file + rule + normalized source line (no
        line number, so the baseline survives unrelated edits above)."""
        return (self.file, self.rule, self.snippet)

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"


# --------------------------------------------------------------------------
# expression helpers


def _root_name(node: ast.AST) -> str | None:
    """Base ``Name`` id of an attribute/subscript chain (``x[0].y`` -> ``x``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_in(node: ast.AST, names: set[str]) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))


def _target_names(target: ast.AST) -> list[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            out.extend(_target_names(elt))
        return out
    return []


def _int_literal(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and (v := _int_literal(node.operand)) is not None
    ):
        return -v
    return None


def _is_float32_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "float32":
        return True
    if isinstance(node, ast.Constant) and node.value == "float32":
        return True
    return False


def _unsorted_dict_view(node: ast.AST) -> str | None:
    """The dict-view method name if ``node`` iterates ``d.items()`` /
    ``.keys()`` / ``.values()`` without a ``sorted(...)`` wrapper.

    Order-preserving wrappers (``enumerate``, ``reversed``, ``list``,
    ``tuple``, ``iter``) are looked through; ``sorted(...)`` makes the
    iteration deterministic and clears the finding.
    """
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        if f.id == "sorted":
            return None
        if f.id in ("enumerate", "reversed", "list", "tuple", "iter"):
            for a in node.args:
                if (m := _unsorted_dict_view(a)) is not None:
                    return m
        return None
    if isinstance(f, ast.Attribute) and f.attr in DICT_VIEW_METHODS and not node.args:
        return f.attr
    return None


def _set_valued_rhs(node: ast.AST, set_names: set[str]) -> bool:
    """RHS that yields a ``set`` (literal, comprehension, constructor,
    set-algebra method on a known set, or alias of a set-typed name)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("set", "frozenset"):
            return True
        if isinstance(f, ast.Attribute) and f.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _set_valued_rhs(f.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _set_valued_rhs(node.left, set_names) or _set_valued_rhs(
            node.right, set_names
        )
    return False


def _unordered_set_iter(node: ast.AST, set_names: set[str]) -> bool:
    """Does ``node`` iterate a set value without a ``sorted(...)``
    wrapper?  Order-preserving wrappers are looked through, mirroring
    :func:`_unsorted_dict_view`."""
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name):
            if f.id == "sorted":
                return False
            if f.id in ("enumerate", "reversed", "list", "tuple", "iter"):
                return any(_unordered_set_iter(a, set_names) for a in node.args)
    return _set_valued_rhs(node, set_names)


# --------------------------------------------------------------------------
# the per-file visitor


@dataclass
class _Scope:
    """Per-function analysis state (copied into nested functions)."""

    f32_names: set[str]
    literal_accums: set[str]
    set_names: set[str]


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, lines: list[str]):
        self.path = path
        self.lines = lines
        self.findings: list[Finding] = []
        norm = path.replace("\\", "/")
        parts = norm.split("/")
        self.r3_active = any(p in parts for p in R3_PACKAGES)
        stem = Path(norm).stem
        self.r4_active = stem in R4_MODULES
        self.r5_active = any(p in parts for p in R5_PACKAGES)
        self.r6_active = any(p in parts for p in R6_PACKAGES)
        self._scope = _Scope(set(), set(), set())
        # R6 context: (container kind, is a checked public surface)
        self._doc_ctx: list[tuple[str, bool]] = [("module", True)]

    # -- bookkeeping -------------------------------------------------------

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                file=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                snippet=self._snippet(line),
            )
        )

    # -- R6: public-API docstrings -----------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        if self.r6_active and ast.get_docstring(node) is None:
            self._emit(node, "R6", "missing module docstring")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        public = self._doc_ctx[-1][1] and not node.name.startswith("_")
        if self.r6_active and public and ast.get_docstring(node) is None:
            self._emit(node, "R6", f"public class '{node.name}' missing docstring")
        self._doc_ctx.append(("class", public))
        try:
            self.generic_visit(node)
        finally:
            self._doc_ctx.pop()

    def _check_def_docstring(self, node) -> None:
        kind, checked = self._doc_ctx[-1]
        if (
            self.r6_active
            and checked
            and not node.name.startswith("_")
            and ast.get_docstring(node) is None
        ):
            what = "method" if kind == "class" else "function"
            self._emit(node, "R6", f"public {what} '{node.name}' missing docstring")

    # -- functions get fresh (inherited) state -----------------------------

    def _visit_function(self, node) -> None:
        self._check_def_docstring(node)
        self._doc_ctx.append(("func", False))
        outer = self._scope
        self._scope = _Scope(
            f32_names=set(),
            literal_accums=set(),
            set_names=set(outer.set_names),
        )
        try:
            self.generic_visit(node)
        finally:
            self._scope = outer
            self._doc_ctx.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        if self.r4_active:
            self._check_hot_loop(node)
        if self.r5_active:
            self._check_dict_iter(node.iter)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        scope = self._scope
        is_f32 = self._float32_rhs(node.value)
        is_set = _set_valued_rhs(node.value, scope.set_names)
        is_literal = isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, (int, float)
        ) and not isinstance(node.value.value, bool)
        for target in node.targets:
            for name in _target_names(target):
                scope.f32_names.add(name) if is_f32 else scope.f32_names.discard(name)
                scope.set_names.add(name) if is_set else scope.set_names.discard(name)
                if is_literal:
                    scope.literal_accums.add(name)
                else:
                    scope.literal_accums.discard(name)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        scope = self._scope
        target = node.target
        # R3 mixing: float literal accumulator += float32 data
        if (
            self.r3_active
            and isinstance(target, ast.Name)
            and target.id in scope.literal_accums
            and _names_in(node.value, scope.f32_names)
        ):
            self._emit(
                node,
                "R3",
                f"float64 literal accumulator '{target.id}' mixed with float32 data",
            )
        self.generic_visit(node)

    # -- R3: dtype discipline ----------------------------------------------

    def _float32_rhs(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "astype" and node.args:
            return _is_float32_dtype(node.args[0])
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_float32_dtype(kw.value):
                return True
        return False

    def _check_dtype_ctor(self, node: ast.Call) -> None:
        f = node.func
        if not (
            isinstance(f, ast.Attribute)
            and f.attr in DTYPE_CTORS
            and isinstance(f.value, ast.Name)
            and f.value.id in ("np", "numpy")
        ):
            return
        if not any(kw.arg == "dtype" for kw in node.keywords):
            self._emit(
                node,
                "R3",
                f"np.{f.attr} without explicit dtype in hot path "
                "(float64 intent must be spelled out)",
            )

    # -- R5: serialization determinism -------------------------------------

    def _check_dict_iter(self, it: ast.AST) -> None:
        if (method := _unsorted_dict_view(it)) is not None:
            self._emit(
                it,
                "R5",
                f"iteration over dict '.{method}()' while serializing state; "
                "wrap in sorted(...) so byte layout and digests are "
                "insertion-order independent",
            )
        elif _unordered_set_iter(it, self._scope.set_names):
            self._emit(
                it,
                "R5",
                "iteration over a set while serializing state; set order is "
                "salted and varies across runs — wrap in sorted(...)",
            )

    def _visit_comprehension(self, node) -> None:
        if self.r5_active:
            for gen in node.generators:
                self._check_dict_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- R4: hot-loop hygiene ----------------------------------------------

    def _check_hot_loop(self, node: ast.For) -> None:
        it = node.iter
        if not isinstance(it, ast.Call) or not isinstance(it.func, ast.Name):
            return
        if it.func.id == "range":
            bounds = [_int_literal(a) for a in it.args]
            if all(b is not None and abs(b) <= _SMALL_RANGE for b in bounds):
                return  # small constant loop (components, corners, sweeps)
        elif it.func.id != "enumerate":
            return
        self._emit(
            node,
            "R4",
            f"per-element Python '{it.func.id}' loop in vectorized hot module; "
            "vectorize or mark '# lint: allow-loop'",
        )

    # dispatch wrapper so R3 ctor checks run on every call expression
    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and self.r3_active:
                self._check_dtype_ctor(child)
            self.visit(child)


# --------------------------------------------------------------------------
# R10: module-global mutable state read inside SPMD kernels
#
# A two-pass, module-at-a-time rule (it needs the whole module before it
# can judge any function), so it runs as its own walk after the
# single-pass _FileLinter rather than inside it.

#: constructors whose results are mutable containers
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "deque",
    "defaultdict",
    "Counter",
    "bytearray",
    "OrderedDict",
}


def _mutable_rhs(node: ast.AST) -> bool:
    """Is this expression a freshly built mutable container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        return name in _MUTABLE_CTORS
    return False


#: container methods that write into their receiver
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "update",
    "setdefault",
    "pop",
    "clear",
    "add",
    "remove",
}


def _written_globals(tree: ast.Module) -> set[str]:
    """Names some function writes into (a subscript or attribute store,
    or a mutating container method call) without binding them locally."""
    written: set[str] = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        local = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        roots: list[str | None] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                local.add(node.id)
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and not isinstance(
                node.ctx, ast.Load
            ):
                roots.append(_root_name(node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                roots.append(_root_name(node.func.value))
        written.update(r for r in roots if r is not None and r not in local)
    return written


def _r10_exempt(name: str, state: set[str]) -> bool:
    # an ALL_CAPS name no function rebinds or writes into is a read-only
    # table; dunders (__all__ etc.) are interpreter plumbing
    if name.startswith("__") and name.endswith("__"):
        return True
    return name.upper() == name and name not in state


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers, plus any name a
    function rebinds through a ``global`` statement (the latter is
    mutable *state* regardless of what value currently sits there —
    ``_fault`` is ``None`` at module scope but re-armed via ``global``)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _mutable_rhs(stmt.value):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and _mutable_rhs(stmt.value)
            and isinstance(stmt.target, ast.Name)
        ):
            names.add(stmt.target.id)
    rebound = {n for node in ast.walk(tree) if isinstance(node, ast.Global) for n in node.names}
    names |= rebound
    state = rebound | _written_globals(tree)
    return {n for n in names if not _r10_exempt(n, state)}


class _KernelBodyScan(ast.NodeVisitor):
    """Collect stores and offending loads within one function body,
    without descending into nested function/class definitions (those are
    judged on their own merits by the outer walk)."""

    def __init__(self, mutable_globals: set[str]):
        self.mutable_globals = mutable_globals
        self.bound: set[str] = set()
        self.loads: list[ast.Name] = []

    def visit_FunctionDef(self, node) -> None:  # no descent
        self.bound.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # no descent

    def visit_Global(self, node: ast.Global) -> None:
        # a `global` declaration means loads refer to module state —
        # exactly what R10 flags — so deliberately NOT marked as bound
        pass

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.id in self.mutable_globals and node.id not in self.bound:
                self.loads.append(node)
        else:  # Store / Del: a local shadows the global from here on
            self.bound.add(node.id)


def _lint_r10(tree: ast.Module, path: str, lines: list[str]) -> list[Finding]:
    mutable = _module_mutable_globals(tree)
    if not mutable:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if not any("comm" in p.lower() for p in params):
            continue  # not an SPMD kernel
        scan = _KernelBodyScan(mutable)
        scan.bound.update(params)
        if a.vararg:
            scan.bound.add(a.vararg.arg)
        if a.kwarg:
            scan.bound.add(a.kwarg.arg)
        for stmt in node.body:
            scan.visit(stmt)
        for load in scan.loads:
            line = load.lineno
            findings.append(
                Finding(
                    file=path,
                    line=line,
                    col=load.col_offset + 1,
                    rule="R10",
                    message=(
                        f"SPMD kernel '{node.name}' reads module-global mutable "
                        f"'{load.id}'; process-backend workers see a stale "
                        "per-process copy — pass it through the world/run envelope"
                    ),
                    snippet=lines[line - 1].strip() if 1 <= line <= len(lines) else "",
                )
            )
    return findings


# --------------------------------------------------------------------------
# suppression + entry points


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    line = lines[finding.line - 1] if 1 <= finding.line <= len(lines) else ""
    m = _DISABLE_RE.search(line)
    if m and finding.rule in {r.strip().upper() for r in m.group(1).split(",")}:
        return True
    if finding.rule == "R4":
        prev = lines[finding.line - 2] if finding.line >= 2 else ""
        if _ALLOW_LOOP_RE.search(line) or _ALLOW_LOOP_RE.search(prev):
            return True
    return False


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint python source text; ``path`` controls path-scoped rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                file=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="E0",
                message=f"syntax error: {exc.msg}",
                snippet="",
            )
        ]
    lines = source.splitlines()
    linter = _FileLinter(path, lines)
    linter.visit(tree)
    findings = linter.findings + _lint_r10(tree, path, lines)
    out = [f for f in findings if not _suppressed(f, lines)]
    out.sort(key=lambda f: (f.line, f.col, f.rule))
    return out


def lint_file(path: str | Path) -> list[Finding]:
    p = Path(path)
    rel = p.as_posix()
    return lint_source(p.read_text(encoding="utf-8"), rel)


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint files and directory trees (``*.py``, sorted, deduplicated)."""
    files: list[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    seen: set[Path] = set()
    findings: list[Finding] = []
    for f in files:
        if f in seen:
            continue
        seen.add(f)
        findings.extend(lint_file(f))
    return findings


# -- baseline ---------------------------------------------------------------

DEFAULT_BASELINE = "lint_baseline.json"


def load_baseline(path: str | Path) -> Counter:
    """Baseline as a multiset of finding fingerprints."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    c: Counter = Counter()
    for entry in data.get("findings", []):
        c[(entry["file"], entry["rule"], entry["snippet"])] += entry.get("count", 1)
    return c


def write_baseline(findings: list[Finding], path: str | Path) -> None:
    c = Counter(f.fingerprint() for f in findings)
    entries = [
        {"file": file, "rule": rule, "snippet": snippet, "count": n}
        for (file, rule, snippet), n in sorted(c.items())
    ]
    payload = {
        "comment": (
            "Grandfathered tools/lint.py findings. New findings fail; "
            "regenerate with: python tools/lint.py src/ tools/ --write-baseline"
        ),
        "findings": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(findings: list[Finding], baseline: Counter) -> list[Finding]:
    """Findings not covered by the baseline multiset."""
    budget = Counter(baseline)
    fresh: list[Finding] = []
    for f in findings:
        fp = f.fingerprint()
        if budget[fp] > 0:
            budget[fp] -= 1
        else:
            fresh.append(f)
    return fresh


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python tools/lint.py",
        description="SPMD correctness linter (rules R3-R6, R10) for this repository.",
    )
    ap.add_argument("paths", nargs="*", default=["src"], help="files or trees to lint")
    ap.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="PATH",
        help=f"require a baseline file (default path: {DEFAULT_BASELINE})",
    )
    ap.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file and report every finding",
    )
    ap.add_argument(
        "--write-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="PATH",
        help="write current findings as the new baseline and exit 0",
    )
    ap.add_argument("--format", choices=("text", "json", "github"), default="text")
    args = ap.parse_args(argv)

    findings = lint_paths(args.paths or ["src"])

    if args.write_baseline:
        write_baseline(findings, args.write_baseline)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    baseline: Counter = Counter()
    if not args.no_baseline:
        bl_path = args.baseline or DEFAULT_BASELINE
        if Path(bl_path).exists():
            baseline = load_baseline(bl_path)
        elif args.baseline is not None:
            print(f"error: baseline file {bl_path!r} not found", file=sys.stderr)
            return 2

    fresh = apply_baseline(findings, baseline)

    if args.format == "json":
        print(json.dumps([asdict(f) for f in fresh], indent=2))
    elif args.format == "github":
        # GitHub Actions workflow-command annotations: findings surface
        # inline on the PR diff.  Messages must be single-line with
        # %, \r, \n escaped per the workflow-command encoding.
        def esc(s: str) -> str:
            return s.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")

        for f in fresh:
            print(
                f"::error file={f.file},line={f.line},col={f.col},"
                f"title=repro-lint {f.rule}::{esc(f.message)}"
            )
        print(f"{len(fresh)} new finding(s)", file=sys.stderr)
    else:
        for f in fresh:
            print(f.render())
        n_base = len(findings) - len(fresh)
        print(
            f"{len(fresh)} new finding(s), {n_base} baselined, "
            f"{len(findings)} total",
            file=sys.stderr,
        )
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
