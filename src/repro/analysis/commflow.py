"""Interprocedural communication-flow analysis.

The PR-2 linter (:mod:`repro.analysis.lint`) checks collective symmetry
*lexically, inside one function* — a rank-dependent branch that reaches
an ``allreduce`` through a helper call is invisible to it.  This module
closes that hole and goes further: it builds a module-level call graph
over a source tree, abstractly interprets every function body into a
**collective signature** (the ordered sequence of communication
operations the function may issue, with branches joined into choice
nodes and loops summarized as repetitions), and propagates those
signatures bottom-up to check three interprocedural rules:

R7  **divergent collective order** — a rank-tainted condition guarding
    a *call* whose transitive signature contains a collective (the
    interprocedural generalization of R1), or a lexical collective
    whose guard is tainted only through channels R1 cannot see
    (rank-valued parameters, rank-local function results).

R8  **send/recv pairing & deadlock cycles** — a blocking ``recv`` whose
    matching ``send`` (complementary rank shift, equal tag) is only
    issued *later* in SPMD program order deadlocks every rank; a
    ``recv``/``send`` with no complementary endpoint anywhere in the
    program is unmatched.  ``SimComm`` sends are buffered, so only
    recv-before-send orderings block.

R9  **shared-buffer publication** — in-place mutation of a buffer after
    it was handed to ``send``/``alltoall``/``bcast`` (the payload may
    still be in flight under a zero-copy backend) or after it was
    returned by a function that hands out cached/shared values (the
    race class a process-pool backend cannot tolerate).

Beyond findings, the same signatures yield the **whole-program static
comm schedule** of the :class:`~repro.amr.pardriver.ParAmrPipeline`
entry points as a JSON artifact, and :class:`ScheduleNFA` compiles a
schedule tree into a nondeterministic finite automaton that
:mod:`repro.analysis.conformance` replays the observed collective
stream against at runtime (under ``REPRO_SANITIZE=1``).

Scope and precision
-------------------
* ``parallel/``, ``analysis/``, and ``obs/`` modules are treated as
  opaque primitives: communicator *method calls* are recognized
  syntactically wherever they appear, but the comm layer's internals
  are never interpreted (they intentionally branch on rank).
* Convenience collectives that delegate inside ``SimComm``
  (``global_offsets``/``allgather_concat`` -> ``allgather``,
  ``alltoallv_arrays`` -> ``alltoall``) are canonicalized to the op the
  runtime sanitizer observes, at the caller's line, so static schedule
  sites match ``CheckedComm`` call sites exactly.
* Lightweight type inference (constructor calls, parameter/return/field
  annotations, including names imported under ``if TYPE_CHECKING:``,
  per-class ``self.attr`` registries) resolves method calls; unresolved
  calls contribute no events.
* Branch bodies are interpreted in source order with one shared
  environment (the same approximation the lexical linter makes).

Usage::

    python -m repro.analysis.commflow src/ --schedule comm_schedule.json
    python -m repro.analysis.lint src/ --commflow --baseline

Stdlib-only on purpose: CI runs this before installing numpy/scipy.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .lint import (
    Finding,
    _collective_call,
    _int_literal,
    _is_comm_expr,
    _is_tainted,
    _root_name,
    _suppressed,
    _target_names,
)

__all__ = [
    "CommEvent",
    "Program",
    "ScheduleNFA",
    "build_program",
    "build_schedule",
    "commflow_findings",
    "DEFAULT_ROOT",
    "DEFAULT_ENTRIES",
    "main",
]

#: package names whose modules are opaque primitives (never interpreted)
OPAQUE_PACKAGES = ("parallel", "analysis", "obs")

#: convenience collectives -> the base op CheckedComm actually observes
CANONICAL_OP = {
    "global_offsets": "allgather",
    "allgather_concat": "allgather",
    "alltoallv_arrays": "alltoall",
}

#: collectives whose payload argument is published to other ranks
PUBLISHING_COLLECTIVES = {"alltoall", "alltoallv_arrays", "bcast"}

#: ndarray methods that mutate the receiver in place
MUTATING_METHODS = {"fill", "sort", "partition", "put"}

#: the pipeline whose entry points define the static comm schedule
DEFAULT_ROOT = "repro.amr.pardriver.ParAmrPipeline"
DEFAULT_ENTRIES = {
    "init": "__init__",
    "adapt": "adapt",
    "advance": "advance",
    "advance_time": "advance_time",
}

_MAX_PATHS = 64  # R8 path enumeration cap per function
_MAX_INLINE = 4  # R8 call-inlining depth
_MAX_RESOLVE = 8  # re-export chain depth
_TYPE_CHECKING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


@dataclass(frozen=True)
class CommEvent:
    """One abstract communication operation in a signature."""

    kind: str  # "coll" | "send" | "recv"
    op: str  # canonical op name
    site: str  # "<basename>.py:<line>" — matches CheckedComm._call_site()
    file: str  # repo-relative path (for findings)
    line: int
    col: int
    func: str  # qualified name of the containing function
    tag: int | None = 0  # p2p tag (None = statically unknown)
    shift: tuple | None = None  # ("rank", d) | ("const", c) | None
    guarded: bool = False  # under rank-tainted control flow


# Signature node grammar (plain tuples, cheap to build and walk):
#   ("op", CommEvent)
#   ("call", qname, site, line, col, guarded)
#   ("choice", [(items, viable), ...])      viable=False means the arm raises
#   ("loop", items)
#   ("pcall", param)                        a call through a parameter of the
#                                           function itself; replaced at a call
#                                           site that passes a known function


@dataclass
class FuncInfo:
    """One analyzed function/method and its interpretation products."""

    qname: str
    module: str
    cls: str | None
    node: ast.AST
    file: str
    sig: list = field(default_factory=list)
    timeline: list = field(default_factory=list)  # R9 replay events
    guarded_calls: list = field(default_factory=list)  # R7 candidates
    guarded_colls: list = field(default_factory=list)  # R7 (lexical, interp-only taint)
    returns_tainted: bool = False
    returns_cached: bool = False


@dataclass
class ClassInfo:
    qname: str
    module: str
    node: ast.ClassDef
    bases: list = field(default_factory=list)  # resolved base class qnames
    methods: dict = field(default_factory=dict)  # name -> func qname
    attrs: dict = field(default_factory=dict)  # attr name -> class qname


@dataclass
class ModuleInfo:
    name: str
    path: Path
    file: str
    is_pkg: bool
    tree: ast.Module
    lines: list


@dataclass
class Summary:
    """Bottom-up transitive facts about one function."""

    qname: str
    has_collective: bool = False
    has_p2p: bool = False
    chain: tuple = ()  # ((callee-or-op, site), ..., (op, site)) to 1st collective
    returns_tainted: bool = False
    returns_cached: bool = False


def _module_name(path: Path) -> str:
    """Dotted module name from the package structure on disk."""
    parts = [] if path.stem == "__init__" else [path.stem]
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:
            break
        d = parent
    return ".".join(parts) or path.stem


def _is_opaque(path: Path) -> bool:
    return any(p in OPAQUE_PACKAGES for p in path.parts)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chain as a dotted string (Name base only)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _shift_of(node: ast.AST, endpoints: dict) -> tuple | None:
    """Symbolic p2p endpoint: ("rank", d), ("const", c), or None."""
    if isinstance(node, ast.Name) and node.id in endpoints:
        return endpoints[node.id]
    if (c := _int_literal(node)) is not None:
        return ("const", c)
    if isinstance(node, ast.Attribute) and node.attr == "rank":
        return ("rank", 0)
    if isinstance(node, ast.Name) and node.id == "rank":
        return ("rank", 0)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Mod):
            return _shift_of(node.left, endpoints)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            left = _shift_of(node.left, endpoints)
            c = _int_literal(node.right)
            if left is not None and left[0] == "rank" and c is not None:
                return ("rank", left[1] + sign * c)
            if isinstance(node.op, ast.Add):
                right = _shift_of(node.right, endpoints)
                c = _int_literal(node.left)
                if right is not None and right[0] == "rank" and c is not None:
                    return ("rank", right[1] + c)
    return None


def _call_arg(node: ast.Call, idx: int, name: str) -> ast.AST | None:
    if len(node.args) > idx:
        return node.args[idx]
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _tag_of(node: ast.Call, idx: int) -> int | None:
    expr = _call_arg(node, idx, "tag")
    if expr is None:
        return 0  # SimComm default tag
    return _int_literal(expr)


def _is_launder_rhs(node: ast.AST) -> bool:
    """RHS that yields a fresh buffer (clears publish/shared marks)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("copy", "deepcopy", "tolist")
    return False


def _is_cacheget_rhs(node: ast.AST) -> bool:
    """Lexical cached-value RHS (``*cache*.get(...)`` / ``operator_cache``)."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr == "get":
        recv = f.value
        if isinstance(recv, ast.Name) and "cache" in recv.id.lower():
            return True
        if isinstance(recv, ast.Attribute) and "cache" in recv.attr.lower():
            return True
    if isinstance(f, ast.Name) and f.id == "operator_cache":
        return True
    if isinstance(f, ast.Attribute) and f.attr == "operator_cache":
        return True
    return False


# --------------------------------------------------------------------------
# the abstract interpreter (one function body -> signature + bookkeeping)


def _bind_pcalls(items: list, passed: dict, call) -> list:
    """``items`` with every ``("pcall", p)`` replaced by ``call(passed[p])``
    (dropped when ``p`` is not a function the caller passed)."""
    out = []
    for it in items:
        if it[0] == "pcall":
            if it[1] in passed:
                out.append(call(passed[it[1]]))
        elif it[0] == "choice":
            out.append(("choice", [(_bind_pcalls(arm, passed, call), v) for arm, v in it[1]]))
        elif it[0] == "loop":
            out.append(("loop", _bind_pcalls(it[1], passed, call)))
        else:
            out.append(it)
    return out


class _Interp:
    def __init__(self, prog: Program, fn: FuncInfo, summaries: dict):
        self.prog = prog
        self.fn = fn
        self.mod = prog.modules[fn.module]
        self.summaries = summaries
        self.symbols = dict(prog.module_symbols[fn.module])
        self.types: dict[str, object] = {}
        self.tainted: set[str] = set()  # full model (params, interproc)
        self.lex_tainted: set[str] = set()  # the lexical linter's model
        self.endpoints: dict[str, tuple] = {}
        self.cached: set[str] = set()  # lexical cache-get locals
        self.guards: list[tuple] = []  # (kind, line, full_taint, lex_taint)
        self.params: set[str] = set()
        self.basename = Path(fn.file).name

    def run(self) -> None:
        fn = self.fn
        fn.sig = []
        fn.timeline = []
        fn.guarded_calls = []
        fn.guarded_colls = []
        fn.returns_tainted = False
        fn.returns_cached = False
        node = fn.node
        if fn.cls is not None:
            self.types["self"] = fn.cls
        args = node.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            self.params.add(a.arg)
            if a.annotation is not None:
                t = self.prog.resolve_annotation(a.annotation, self.symbols)
                if isinstance(t, str):
                    self.types[a.arg] = t
            if a.arg == "rank" or a.arg.endswith("_rank"):
                self.tainted.add(a.arg)
                self.endpoints[a.arg] = ("rank", 0)
        items, _term = self.block(node.body)
        fn.sig = items

    # -- blocks -------------------------------------------------------------

    def block(self, stmts: list) -> tuple[list, str | None]:
        items: list = []
        for idx, st in enumerate(stmts):
            if isinstance(st, ast.If):
                sub, term = self._if(st, stmts[idx + 1 :])
                return items + sub, term
            got, term = self.stmt(st)
            items.extend(got)
            if term is not None:
                return items, term
        return items, None

    def _if(self, st: ast.If, rest: list) -> tuple[list, str | None]:
        items = self.expr(st.test)
        full = _is_tainted(st.test, self.tainted)
        lex = _is_tainted(st.test, self.lex_tainted)
        self.guards.append(("if", st.lineno, full, lex))
        then_items, then_term = self.block(st.body)
        else_items, else_term = self.block(st.orelse)
        self.guards.pop()
        if then_term is None and else_term is None and not then_items and not else_items:
            rest_items, rest_term = self.block(rest)
            return items + rest_items, rest_term
        if then_term is not None and else_term is not None:
            arms = [
                (then_items, then_term != "raise"),
                (else_items, else_term != "raise"),
            ]
            items.append(("choice", arms))
            term = "raise" if then_term == else_term == "raise" else "return"
            return items, term
        rest_items, rest_term = self.block(rest)
        arms = []
        for s, t in ((then_items, then_term), (else_items, else_term)):
            if t is None:
                arms.append((s + rest_items, rest_term != "raise"))
            else:
                arms.append((s, t != "raise"))
        items.append(("choice", arms))
        return items, rest_term

    def _loop_orelse(self, orelse: list) -> list:
        """A loop's ``else`` clause runs only when the loop exits without
        ``break``, so it is optional: model it as a choice between the
        clause and nothing, and never let it terminate the block (the
        post-loop code stays reachable through the break path)."""
        if not orelse:
            return []
        more, oterm = self.block(orelse)
        if not more and oterm is None:
            return []
        return [("choice", [(more, oterm != "raise"), ([], True)])]

    # -- statements ---------------------------------------------------------

    def stmt(self, st: ast.stmt) -> tuple[list, str | None]:
        if isinstance(st, ast.Expr):
            return self.expr(st.value), None
        if isinstance(st, ast.Assign):
            items = self.expr(st.value)
            for target in st.targets:
                self._check_store(target, st)
            self._bind(st.targets, st.value)
            return items, None
        if isinstance(st, ast.AnnAssign):
            items = self.expr(st.value) if st.value is not None else []
            self._check_store(st.target, st)
            self._bind([st.target], st.value, annotation=st.annotation)
            return items, None
        if isinstance(st, ast.AugAssign):
            items = self.expr(st.value)
            root = _root_name(st.target)
            if root is not None:
                self._mutate(root, st, "in-place operator")
            if isinstance(st.target, ast.Name) and _is_tainted(st.value, self.tainted):
                self.tainted.add(st.target.id)
            if isinstance(st.target, ast.Name) and _is_tainted(st.value, self.lex_tainted):
                self.lex_tainted.add(st.target.id)
            return items, None
        if isinstance(st, ast.Return):
            items = self.expr(st.value) if st.value is not None else []
            self._note_return(st.value)
            return items, "return"
        if isinstance(st, ast.Raise):
            items = self.expr(st.exc) if st.exc is not None else []
            return items, "raise"
        if isinstance(st, ast.Assert):
            items = self.expr(st.test)
            if st.msg is not None:
                items += self.expr(st.msg)
            return items, None
        if isinstance(st, ast.While):
            head = self.expr(st.test)
            full = _is_tainted(st.test, self.tainted)
            lex = _is_tainted(st.test, self.lex_tainted)
            self.guards.append(("while", st.lineno, full, lex))
            body, _t = self.block(st.body)
            self.guards.pop()
            items = head + ([("loop", body + head)] if body or head else [])
            return items + self._loop_orelse(st.orelse), None
        if isinstance(st, ast.For):
            head = self.expr(st.iter)
            full = _is_tainted(st.iter, self.tainted)
            lex = _is_tainted(st.iter, self.lex_tainted)
            if full:
                for name in _target_names(st.target):
                    self.tainted.add(name)
            if lex:
                for name in _target_names(st.target):
                    self.lex_tainted.add(name)
            self.guards.append(("for", st.lineno, full, lex))
            body, _t = self.block(st.body)
            self.guards.pop()
            items = head + ([("loop", body)] if body else [])
            return items + self._loop_orelse(st.orelse), None
        if isinstance(st, ast.With):
            items: list = []
            for wi in st.items:
                items += self.expr(wi.context_expr)
            body, term = self.block(st.body)
            return items + body, term
        if isinstance(st, ast.Try):
            items, term = self.block(st.body)
            handler_arms = []
            for h in st.handlers:
                h_items, _ht = self.block(h.body)
                if h_items:
                    handler_arms.append((h_items, True))
            if handler_arms:
                items.append(("choice", [([], True)] + handler_arms))
                term = None  # an exception may skip the tail of the body
            fin, fterm = self.block(st.finalbody)
            items += fin
            return items, term if fterm is None else fterm
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.symbols[st.name] = f"{self.fn.qname}.<locals>.{st.name}"
            return [], None
        if isinstance(st, ast.ClassDef):
            return [], None
        if isinstance(st, (ast.Import, ast.ImportFrom)):
            self.prog.apply_import(self.symbols, self.mod, st)
            return [], None
        if isinstance(st, ast.Break):
            return [], "break"
        if isinstance(st, ast.Continue):
            return [], "continue"
        if isinstance(st, ast.Delete):
            items = []
            for t in st.targets:
                items += self.expr(t)
            return items, None
        if hasattr(ast, "Match") and isinstance(st, ast.Match):
            items = self.expr(st.subject)
            arms = []
            for case in st.cases:
                c_items, _ct = self.block(case.body)
                arms.append((c_items, True))
            if any(a for a, _v in arms):
                items.append(("choice", arms))
            return items, None
        return [], None

    # -- expressions --------------------------------------------------------

    def expr(self, node: ast.AST | None) -> list:
        out: list = []
        if node is not None:
            self._expr(node, out)
        return out

    def _expr(self, node: ast.AST, out: list) -> None:
        if isinstance(node, ast.Call):
            self._expr(node.func, out)
            for a in node.args:
                self._expr(a.value if isinstance(a, ast.Starred) else a, out)
            for kw in node.keywords:
                self._expr(kw.value, out)
            self._call(node, out)
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, out)
            a: list = []
            b: list = []
            self._expr(node.body, a)
            self._expr(node.orelse, b)
            if a or b:
                out.append(("choice", [(a, True), (b, True)]))
            return
        if isinstance(node, ast.BoolOp):
            self._expr(node.values[0], out)
            tail: list = []
            for v in node.values[1:]:
                self._expr(v, tail)
            if tail:
                out.append(("choice", [(tail, True), ([], True)]))
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            gens = node.generators
            self._expr(gens[0].iter, out)
            body: list = []
            for g in gens[1:]:
                self._expr(g.iter, body)
            for g in gens:
                for cond in g.ifs:
                    self._expr(cond, body)
            if isinstance(node, ast.DictComp):
                self._expr(node.key, body)
                self._expr(node.value, body)
            else:
                self._expr(node.elt, body)
            if body:
                out.append(("loop", body))
            return
        if isinstance(node, ast.Lambda):
            return
        for child in ast.iter_child_nodes(node):
            self._expr(child, out)

    def _guard(self) -> tuple | None:
        """Innermost rank-tainted guard (kind, line, lex_tainted_too)."""
        for kind, line, full, lex in reversed(self.guards):
            if full:
                return (kind, line, lex)
        return None

    def _event(self, kind: str, op: str, node: ast.AST, **kw) -> CommEvent:
        return CommEvent(
            kind=kind,
            op=op,
            site=f"{self.basename}:{node.lineno}",
            file=self.fn.file,
            line=node.lineno,
            col=node.col_offset + 1,
            func=self.fn.qname,
            guarded=self._guard() is not None,
            **kw,
        )

    def _call(self, node: ast.Call, out: list) -> None:
        f = node.func
        # mutation-by-call bookkeeping (any call)
        if isinstance(f, ast.Attribute) and f.attr == "at" and node.args:
            root = _root_name(node.args[0])
            if root:
                self._mutate(root, node, "mutating ufunc '.at'")
        if isinstance(f, ast.Attribute) and f.attr in MUTATING_METHODS:
            root = _root_name(f.value)
            if root:
                self._mutate(root, node, f"mutating method '.{f.attr}'")
        for kw in node.keywords:
            if kw.arg == "out" and (root := _root_name(kw.value)):
                self._mutate(root, node, "ufunc out=")

        op = _collective_call(node)
        if op is not None:
            canon = CANONICAL_OP.get(op, op)
            ev = self._event("coll", canon, node)
            out.append(("op", ev))
            g = self._guard()
            lex_guarded = any(gl for _k, _l, _f, gl in self.guards)
            if g is not None and not lex_guarded:
                # tainted only through interp channels R1 cannot see
                self.fn.guarded_colls.append((ev, g[0], g[1]))
            if op in PUBLISHING_COLLECTIVES and node.args:
                self._publish(node.args[0], canon, node)
            return
        if isinstance(f, ast.Attribute) and _is_comm_expr(f.value):
            if f.attr == "send":
                dest = _call_arg(node, 1, "dest")
                ev = self._event(
                    "send",
                    "send",
                    node,
                    tag=_tag_of(node, 2),
                    shift=_shift_of(dest, self.endpoints) if dest is not None else None,
                )
                out.append(("op", ev))
                if node.args:
                    self._publish(node.args[0], "send", node)
                return
            if f.attr == "recv":
                source = _call_arg(node, 0, "source")
                ev = self._event(
                    "recv",
                    "recv",
                    node,
                    tag=_tag_of(node, 1),
                    shift=_shift_of(source, self.endpoints) if source is not None else None,
                )
                out.append(("op", ev))
                return
            if f.attr == "sendrecv":
                dest = _call_arg(node, 1, "dest")
                source = _call_arg(node, 2, "source")
                out.append(
                    (
                        "op",
                        self._event(
                            "send",
                            "send",
                            node,
                            tag=_tag_of(node, 3),
                            shift=_shift_of(dest, self.endpoints) if dest is not None else None,
                        ),
                    )
                )
                out.append(
                    (
                        "op",
                        self._event(
                            "recv",
                            "recv",
                            node,
                            tag=_tag_of(node, 3),
                            shift=_shift_of(source, self.endpoints)
                            if source is not None
                            else None,
                        ),
                    )
                )
                if node.args:
                    self._publish(node.args[0], "send", node)
                return

        target = self._func_target(f)
        if target is None:
            if isinstance(f, ast.Name) and f.id in self.params:
                out.append(("pcall", f.id))
            return
        kind, qn = target
        if kind == "class":
            init = self.prog.method_of(qn, "__init__")
            if init is None:
                return
            qn = init
        elif kind != "func":
            return
        if qn == self.fn.qname:
            return  # direct self-recursion adds nothing
        g = self._guard()
        site = f"{self.basename}:{node.lineno}"

        def call(q):
            return ("call", q, site, node.lineno, node.col_offset + 1, g is not None)

        passed = self._passed_functions(node, qn, bound=kind == "class" or isinstance(f, ast.Attribute))
        if passed:
            # function-valued arguments (``heun_step(self.rate, ...)``): the
            # callee's calls through those parameters are calls to them here
            out.extend(_bind_pcalls(self.prog.functions[qn].sig, passed, call))
        else:
            out.append(call(qn))
        if g is not None:
            self.fn.guarded_calls.append((qn, node, g[0], g[1]))

    def _passed_functions(self, node: ast.Call, qn: str, bound: bool) -> dict:
        """``{parameter of qn: qname}`` for the arguments of ``node`` that
        are themselves known functions or bound methods."""
        fi = self.prog.functions[qn]
        a = fi.node.args
        names = [p.arg for p in list(a.posonlyargs) + list(a.args)]
        if bound and fi.cls is not None:
            names = names[1:]  # self is implicit
        pairs = list(zip(names, node.args)) + [(kw.arg, kw.value) for kw in node.keywords]
        out = {}
        for name, value in pairs:
            if name is not None and isinstance(value, (ast.Name, ast.Attribute)):
                t = self._func_target(value)
                if t is not None and t[0] == "func":
                    out[name] = t[1]
        return out

    def _publish(self, payload: ast.AST, op: str, node: ast.AST) -> None:
        """Record buffers handed to a communication op (R9)."""
        if isinstance(payload, (ast.List, ast.Tuple)):
            for elt in payload.elts:
                self._publish(elt, op, node)
            return
        if isinstance(payload, ast.Call):
            return  # fresh value (e.g. .copy(), list(...)) — laundered
        root = _root_name(payload)
        if root:
            self.fn.timeline.append(("publish", root, op, node.lineno, node.col_offset + 1))

    def _mutate(self, name: str, node: ast.AST, how: str) -> None:
        self.fn.timeline.append(("mutate", name, how, node.lineno, node.col_offset + 1))

    # -- binding / typing ---------------------------------------------------

    def _resolve_symbol(self, name: str):
        dotted = self.symbols.get(name)
        if dotted is None:
            return None
        return self.prog.resolve_dotted(dotted)

    def _call_target(self, node: ast.Call):
        """Resolve a call to ("func"|"class", qname), or None."""
        return self._func_target(node.func)

    def _func_target(self, f: ast.AST):
        """Resolve a function-valued expression (the callee of a call, or
        a function passed as an argument) to ("func"|"class", qname)."""
        if isinstance(f, ast.Name):
            r = self._resolve_symbol(f.id)
            if r is not None and r[0] in ("func", "class"):
                return r
            return None
        if isinstance(f, ast.Attribute):
            if isinstance(f.value, ast.Name):
                r = self._resolve_symbol(f.value.id)
                if r is not None and r[0] == "mod":
                    sub = self.prog.resolve_dotted(f"{r[1]}.{f.attr}")
                    if sub is not None and sub[0] in ("func", "class"):
                        return sub
            base = self._value_type(f.value)
            if isinstance(base, str):
                m = self.prog.method_of(base, f.attr)
                if m is not None:
                    return ("func", m)
        return None

    def _value_type(self, node: ast.AST | None):
        if node is None:
            return None
        if isinstance(node, ast.Name):
            t = self.types.get(node.id)
            if t is not None:
                return t
            r = self._resolve_symbol(node.id)
            if r is not None and r[0] == "class":
                return None  # the class object itself, not an instance
            return None
        if isinstance(node, ast.Attribute):
            base = self._value_type(node.value)
            if isinstance(base, str):
                return self.prog.attr_type(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            target = self._call_target(node)
            if target is None:
                return None
            kind, qn = target
            if kind == "class":
                return qn
            fi = self.prog.functions.get(qn)
            if fi is not None and getattr(fi.node, "returns", None) is not None:
                return self.prog.resolve_annotation(
                    fi.node.returns, self.prog.module_symbols[fi.module]
                )
            return None
        if isinstance(node, ast.Tuple):
            return ("tuple", [self._value_type(e) for e in node.elts])
        if isinstance(node, ast.Await):
            return self._value_type(node.value)
        return None

    def _bind(self, targets: list, value: ast.AST | None, annotation: ast.AST | None = None) -> None:
        vtype = None
        if annotation is not None:
            vtype = self.prog.resolve_annotation(annotation, self.symbols)
        if vtype is None and value is not None:
            vtype = self._value_type(value)
        full = value is not None and _is_tainted(value, self.tainted)
        lex = value is not None and _is_tainted(value, self.lex_tainted)
        shift = _shift_of(value, self.endpoints) if value is not None else None
        cacheget = value is not None and _is_cacheget_rhs(value)
        launder = value is not None and _is_launder_rhs(value)
        alias = value.id if isinstance(value, ast.Name) else None
        call_q = None
        if isinstance(value, ast.Call):
            t = self._call_target(value)
            if t is not None and t[0] == "func":
                call_q = t[1]
                s = self.summaries.get(call_q)
                if s is not None and s.returns_tainted:
                    full = True

        for target in targets:
            self._bind_one(target, vtype, full, lex, shift, cacheget, launder, alias, call_q)

    def _bind_one(self, target, vtype, full, lex, shift, cacheget, launder, alias, call_q) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            elts = [e.value if isinstance(e, ast.Starred) else e for e in target.elts]
            sub = (
                vtype[1]
                if isinstance(vtype, tuple) and vtype[0] == "tuple" and len(vtype[1]) == len(elts)
                else [None] * len(elts)
            )
            for e, t in zip(elts, sub):
                self._bind_one(e, t, full, lex, None, False, launder, None, call_q)
            return
        if isinstance(target, ast.Attribute):
            # record self.<attr> types into the class registry
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.fn.cls is not None
                and isinstance(vtype, str)
            ):
                ci = self.prog.classes.get(self.fn.cls)
                if ci is not None:
                    ci.attrs.setdefault(target.attr, vtype)
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if isinstance(vtype, str):
            self.types[name] = vtype
        else:
            self.types.pop(name, None)
        self.tainted.add(name) if full else self.tainted.discard(name)
        self.lex_tainted.add(name) if lex else self.lex_tainted.discard(name)
        if shift is not None:
            self.endpoints[name] = shift
        else:
            self.endpoints.pop(name, None)
        if cacheget:
            self.cached.add(name)
        elif alias is not None and alias in self.cached:
            self.cached.add(name)
        else:
            self.cached.discard(name)
        # R9 replay events
        if call_q is not None:
            self.fn.timeline.append(("bind_call", name, call_q))
        elif alias is not None and not launder:
            self.fn.timeline.append(("bind_alias", name, alias))
        else:
            self.fn.timeline.append(("bind", name, None))

    def _check_store(self, target: ast.AST, st: ast.stmt) -> None:
        if isinstance(target, (ast.Subscript,)):
            root = _root_name(target)
            if root:
                self._mutate(root, st, "element write")
        if isinstance(target, ast.Tuple):
            for e in target.elts:
                self._check_store(e, st)

    def _note_return(self, value: ast.AST | None) -> None:
        if value is None:
            return
        if _is_tainted(value, self.tainted):
            self.fn.returns_tainted = True
        if _is_cacheget_rhs(value):
            self.fn.returns_cached = True
        if isinstance(value, ast.Name) and value.id in self.cached:
            self.fn.returns_cached = True
        if isinstance(value, ast.Call):
            t = self._call_target(value)
            if t is not None and t[0] == "func":
                s = self.summaries.get(t[1])
                if s is not None and s.returns_cached:
                    self.fn.returns_cached = True
                if s is not None and s.returns_tainted:
                    self.fn.returns_tainted = True


# --------------------------------------------------------------------------
# the whole-program analysis


class Program:
    """A collection of analyzed modules with interprocedural summaries."""

    def __init__(self, paths: list):
        self.modules: dict[str, ModuleInfo] = {}
        self.module_symbols: dict[str, dict] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.sources: dict[str, list] = {}
        self.notes: list[str] = []
        self._sums: dict[str, Summary] = {}
        self._ran = False
        self._collect(paths)

    # -- collection ---------------------------------------------------------

    def _collect(self, paths: list) -> None:
        files: list[Path] = []
        for path in paths:
            p = Path(path)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(p)
        seen: set[Path] = set()
        for f in files:
            if f in seen or _is_opaque(f):
                continue
            seen.add(f)
            try:
                source = f.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(f))
            except (OSError, SyntaxError) as exc:
                self.notes.append(f"skipped {f}: {exc}")
                continue
            name = _module_name(f)
            rel = f.as_posix()
            mod = ModuleInfo(
                name=name,
                path=f,
                file=rel,
                is_pkg=f.stem == "__init__",
                tree=tree,
                lines=source.splitlines(),
            )
            self.modules[name] = mod
            self.sources[rel] = mod.lines
        for mod in self.modules.values():
            self._collect_module(mod)
        for ci in self.classes.values():
            self._resolve_bases(ci)
            self._collect_class_attrs(ci)

    def _collect_module(self, mod: ModuleInfo) -> None:
        symbols: dict[str, str] = {}
        self.module_symbols[mod.name] = symbols
        for st in mod.tree.body:
            if isinstance(st, (ast.Import, ast.ImportFrom)):
                self.apply_import(symbols, mod, st)
            elif isinstance(st, ast.If) and _dotted_name(st.test) in _TYPE_CHECKING:
                # names imported for annotations only (an import cycle at run time)
                for imp in st.body:
                    if isinstance(imp, (ast.Import, ast.ImportFrom)):
                        self.apply_import(symbols, mod, imp)
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{mod.name}.{st.name}"
                symbols[st.name] = qname
                self.functions[qname] = FuncInfo(
                    qname=qname, module=mod.name, cls=None, node=st, file=mod.file
                )
                self._register_nested(mod, st.body, qname)
            elif isinstance(st, ast.ClassDef):
                qname = f"{mod.name}.{st.name}"
                symbols[st.name] = qname
                ci = ClassInfo(qname=qname, module=mod.name, node=st)
                self.classes[qname] = ci
                for m in st.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mq = f"{qname}.{m.name}"
                        ci.methods[m.name] = mq
                        self.functions[mq] = FuncInfo(
                            qname=mq, module=mod.name, cls=qname, node=m, file=mod.file
                        )
                        self._register_nested(mod, m.body, mq)

    def _register_nested(self, mod: ModuleInfo, body: list, prefix: str) -> None:
        for st in body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.<locals>.{st.name}"
                self.functions[qname] = FuncInfo(
                    qname=qname, module=mod.name, cls=None, node=st, file=mod.file
                )
                self._register_nested(mod, st.body, qname)
            elif isinstance(st, (ast.If, ast.While, ast.For, ast.With, ast.Try)):
                for attr in ("body", "orelse", "finalbody"):
                    self._register_nested(mod, getattr(st, attr, []) or [], prefix)
                for h in getattr(st, "handlers", []) or []:
                    self._register_nested(mod, h.body, prefix)

    def apply_import(self, symbols: dict, mod: ModuleInfo, node: ast.stmt) -> None:
        """Fold an import statement into a symbol table."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    symbols[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    symbols[head] = head
            return
        if not isinstance(node, ast.ImportFrom):
            return
        parts = mod.name.split(".")
        if node.level:
            if not mod.is_pkg:
                parts = parts[:-1]
            if node.level > 1:
                parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts = parts + node.module.split(".")
        base = ".".join(parts)
        for alias in node.names:
            if alias.name == "*":
                continue
            symbols[alias.asname or alias.name] = f"{base}.{alias.name}" if base else alias.name

    def resolve_dotted(self, dotted: str, depth: int = 0):
        """Resolve a dotted path to ("func"|"class"|"mod", qname)."""
        if depth > _MAX_RESOLVE:
            return None
        if dotted in self.functions:
            return ("func", dotted)
        if dotted in self.classes:
            return ("class", dotted)
        if dotted in self.modules:
            return ("mod", dotted)
        head, _, tail = dotted.rpartition(".")
        if head and head in self.module_symbols:
            target = self.module_symbols[head].get(tail)
            if target is not None and target != dotted:
                return self.resolve_dotted(target, depth + 1)
        return None

    # -- classes ------------------------------------------------------------

    def _resolve_bases(self, ci: ClassInfo) -> None:
        symbols = self.module_symbols.get(ci.module, {})
        for b in ci.node.bases:
            dotted = _dotted_name(b)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            root = symbols.get(head, head)
            r = self.resolve_dotted(f"{root}.{rest}" if rest else root)
            if r is not None and r[0] == "class":
                ci.bases.append(r[1])

    def _collect_class_attrs(self, ci: ClassInfo) -> None:
        for st in ci.node.body:
            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
                symbols = self.module_symbols[ci.module]
                t = self.resolve_annotation(st.annotation, symbols)
                if isinstance(t, str):
                    ci.attrs.setdefault(st.target.id, t)

    def mro(self, cls_qname: str):
        seen = [cls_qname]
        queue = [cls_qname]
        while queue:
            q = queue.pop(0)
            ci = self.classes.get(q)
            if ci is None:
                continue
            for b in ci.bases:
                if b not in seen:
                    seen.append(b)
                    queue.append(b)
        return seen

    def method_of(self, cls_qname: str, name: str) -> str | None:
        for q in self.mro(cls_qname):
            ci = self.classes.get(q)
            if ci is not None and name in ci.methods:
                return ci.methods[name]
        return None

    def attr_type(self, cls_qname: str, attr: str) -> str | None:
        for q in self.mro(cls_qname):
            ci = self.classes.get(q)
            if ci is not None and attr in ci.attrs:
                return ci.attrs[attr]
        return None

    def resolve_annotation(self, node: ast.AST | None, symbols: dict[str, str]):
        """Annotation expression -> class qname, ("tuple", [...]), or None,
        with names looked up in ``symbols`` (a module's, or a function's
        after its own imports)."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(node)
            if dotted is None:
                return None
            head, _, rest = dotted.partition(".")
            root = symbols.get(head, head)
            r = self.resolve_dotted(f"{root}.{rest}" if rest else root)
            if r is not None and r[0] == "class":
                return r[1]
            return None
        if isinstance(node, ast.Subscript):
            base = _dotted_name(node.value)
            base_tail = (base or "").rpartition(".")[2]
            if base_tail in ("tuple", "Tuple"):
                sl = node.slice
                elts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
                return ("tuple", [self.resolve_annotation(e, symbols) for e in elts])
            if base_tail == "Optional":
                return self.resolve_annotation(node.slice, symbols)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self.resolve_annotation(node.left, symbols)
            if left is not None:
                return left
            return self.resolve_annotation(node.right, symbols)
        return None

    # -- interpretation + summaries -----------------------------------------

    def run(self) -> None:
        """Interpret every function twice (second pass sees summaries)."""
        if self._ran:
            return
        self._ran = True
        sums: dict[str, Summary] = {}
        for _ in range(2):
            for fn in self.functions.values():
                _Interp(self, fn, sums).run()
            sums = {}
            self._sums = sums
            for qn in self.functions:
                self.summary(qn)
        self._sums = sums

    def summary(self, qname: str, _visiting: frozenset = frozenset()) -> Summary:
        """Transitive facts for one function (memoized; cycles -> empty)."""
        if qname in self._sums:
            return self._sums[qname]
        if qname in _visiting:
            return Summary(qname)
        fn = self.functions.get(qname)
        if fn is None:
            return Summary(qname)
        s = Summary(
            qname,
            returns_tainted=fn.returns_tainted,
            returns_cached=fn.returns_cached,
        )
        self._walk_sig(fn.sig, s, _visiting | {qname})
        self._sums[qname] = s
        return s

    def _walk_sig(self, items: list, s: Summary, visiting: frozenset) -> None:
        for it in items:
            tag = it[0]
            if tag == "op":
                ev = it[1]
                if ev.kind == "coll":
                    if not s.has_collective:
                        s.has_collective = True
                        s.chain = ((ev.op, ev.site),)
                else:
                    s.has_p2p = True
            elif tag == "call":
                sub = self.summary(it[1], visiting)
                if sub.has_p2p:
                    s.has_p2p = True
                if sub.has_collective and not s.has_collective:
                    s.has_collective = True
                    s.chain = ((it[1], it[2]),) + sub.chain
            elif tag == "choice":
                for arm, _viable in it[1]:
                    self._walk_sig(arm, s, visiting)
            elif tag == "loop":
                self._walk_sig(it[1], s, visiting)

    # -- findings -----------------------------------------------------------

    def findings(self) -> list[Finding]:
        """All R7/R8/R9 findings (suppression comments applied)."""
        self.run()
        out = self._r7() + self._r8() + self._r9()
        kept = []
        for f in out:
            lines = self.sources.get(f.file, [])
            if not _suppressed(f, lines):
                kept.append(f)
        kept.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
        return kept

    def _snippet(self, file: str, line: int) -> str:
        lines = self.sources.get(file, [])
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def _finding(self, file: str, line: int, col: int, rule: str, message: str) -> Finding:
        return Finding(
            file=file,
            line=line,
            col=col,
            rule=rule,
            message=message,
            snippet=self._snippet(file, line),
        )

    @staticmethod
    def _short(qname: str) -> str:
        return qname.rpartition(".")[2]

    def _chain_str(self, qname: str) -> tuple[str, str]:
        """(rendered call chain, final collective op) for an R7 message."""
        s = self._sums.get(qname) or Summary(qname)
        hops = []
        for name, site in s.chain[:-1]:
            hops.append(f"{self._short(name)} [{site}]")
        op, site = s.chain[-1] if s.chain else ("?", "?")
        hops.append(f"{op} [{site}]")
        return " -> ".join(hops), op

    def _r7(self) -> list[Finding]:
        out = []
        for fn in self.functions.values():
            for qn, node, kind, gline in fn.guarded_calls:
                s = self._sums.get(qn)
                if s is None or not s.has_collective:
                    continue
                chain, op = self._chain_str(qn)
                out.append(
                    self._finding(
                        fn.file,
                        node.lineno,
                        node.col_offset + 1,
                        "R7",
                        f"call to '{self._short(qn)}' inside rank-dependent "
                        f"'{kind}' (line {gline}) transitively issues collective "
                        f"'{op}' via {chain}; every rank must issue the same "
                        "collective sequence",
                    )
                )
            for ev, kind, gline in fn.guarded_colls:
                out.append(
                    self._finding(
                        fn.file,
                        ev.line,
                        ev.col,
                        "R7",
                        f"collective '{ev.op}' inside rank-dependent '{kind}' "
                        f"(line {gline}); the guard is rank-tainted through a "
                        "parameter or call result the lexical R1 rule cannot see",
                    )
                )
        return out

    # -- R8: p2p pairing & deadlock -----------------------------------------

    @staticmethod
    def _p2p_match(send: CommEvent, recv: CommEvent) -> bool:
        if send.tag is not None and recv.tag is not None and send.tag != recv.tag:
            return False
        ss, rs = send.shift, recv.shift
        if ss is None or rs is None:
            return True
        if ss[0] == "rank" and rs[0] == "rank":
            return ss[1] == -rs[1]
        return True

    def _direct_events(self, items: list, acc: list) -> None:
        for it in items:
            if it[0] == "op":
                acc.append(it[1])
            elif it[0] == "choice":
                for arm, _v in it[1]:
                    self._direct_events(arm, acc)
            elif it[0] == "loop":
                self._direct_events(it[1], acc)

    def _expand_p2p(self, qname: str, depth: int, visiting: frozenset) -> list:
        fn = self.functions.get(qname)
        if fn is None:
            return [[]]
        return self._expand_items(fn.sig, depth, visiting | {qname})

    def _expand_items(self, items: list, depth: int, visiting: frozenset) -> list:
        paths: list[list] = [[]]
        for it in items:
            tag = it[0]
            if tag == "op":
                ev = it[1]
                if ev.kind in ("send", "recv"):
                    paths = [p + [ev] for p in paths]
            elif tag == "call":
                qn = it[1]
                s = self._sums.get(qn)
                if depth > 0 and qn not in visiting and s is not None and s.has_p2p:
                    subs = self._expand_p2p(qn, depth - 1, visiting)
                    if it[5]:  # guarded call: inlined events inherit the guard
                        subs = [[replace(e, guarded=True) for e in sp] for sp in subs]
                    paths = [p + sp for p in paths for sp in subs][:_MAX_PATHS]
            elif tag == "choice":
                arm_paths: list[list] = []
                for arm, viable in it[1]:
                    if viable:
                        arm_paths.extend(self._expand_items(arm, depth, visiting))
                if arm_paths:
                    paths = [p + ap for p in paths for ap in arm_paths][:_MAX_PATHS]
            elif tag == "loop":
                body = self._expand_items(it[1], depth, visiting)
                opts = [[]] + [b for b in body if b]
                paths = [p + o for p in paths for o in opts][:_MAX_PATHS]
        return paths[:_MAX_PATHS]

    def _r8(self) -> list[Finding]:
        out = []
        all_events: list[CommEvent] = []
        for fn in self.functions.values():
            self._direct_events(fn.sig, all_events)
        sends = [e for e in all_events if e.kind == "send"]
        recvs = [e for e in all_events if e.kind == "recv"]

        reported: set[tuple] = set()
        # deadlock: recv before its matching send in SPMD program order
        for fn in self.functions.values():
            s = self._sums.get(fn.qname)
            if s is None or not s.has_p2p:
                continue
            for path in self._expand_p2p(fn.qname, _MAX_INLINE, frozenset()):
                for i, ev in enumerate(path):
                    if ev.kind != "recv" or ev.guarded:
                        continue
                    if ev.shift is None or ev.shift[0] != "rank" or ev.shift[1] == 0:
                        continue
                    if any(
                        p.kind == "send" and self._p2p_match(p, ev) for p in path[:i]
                    ):
                        continue
                    later = next(
                        (p for p in path[i + 1 :] if p.kind == "send" and self._p2p_match(p, ev)),
                        None,
                    )
                    if later is None:
                        continue
                    key = ("deadlock", ev.site, later.site)
                    if key in reported:
                        continue
                    reported.add(key)
                    out.append(
                        self._finding(
                            ev.file,
                            ev.line,
                            ev.col,
                            "R8",
                            f"blocking recv(source=rank{ev.shift[1]:+d}) precedes "
                            f"its matching send at {later.site} in SPMD program "
                            f"order (via {self._short(fn.qname)}); every rank "
                            "blocks here — send first or use sendrecv",
                        )
                    )
        # unmatched endpoints program-wide
        for ev in recvs:
            key = ("unmatched-recv", ev.site)
            if key in reported:
                continue
            if not any(self._p2p_match(snd, ev) for snd in sends):
                reported.add(key)
                shift = "?" if ev.shift is None else f"rank{ev.shift[1]:+d}" if ev.shift[0] == "rank" else str(ev.shift[1])
                out.append(
                    self._finding(
                        ev.file,
                        ev.line,
                        ev.col,
                        "R8",
                        f"recv(source={shift}, tag={ev.tag}) has no matching send "
                        "(complementary shift, equal tag) anywhere in the analyzed "
                        "program; every rank would block forever",
                    )
                )
        for ev in sends:
            key = ("unmatched-send", ev.site)
            if key in reported:
                continue
            if not any(self._p2p_match(ev, rcv) for rcv in recvs):
                reported.add(key)
                out.append(
                    self._finding(
                        ev.file,
                        ev.line,
                        ev.col,
                        "R8",
                        f"send(tag={ev.tag}) has no matching recv anywhere in the "
                        "analyzed program; the message is never received",
                    )
                )
        return out

    # -- R9: shared-buffer publication --------------------------------------

    def _r9(self) -> list[Finding]:
        out = []
        for fn in self.functions.values():
            published: dict[str, tuple] = {}
            shared: dict[str, str] = {}
            reported: set[tuple] = set()
            for ev in fn.timeline:
                what = ev[0]
                if what == "publish":
                    _w, name, op, line, _col = ev
                    published[name] = (op, line)
                elif what == "bind_call":
                    _w, name, qn = ev
                    published.pop(name, None)
                    s = self._sums.get(qn)
                    if s is not None and s.returns_cached:
                        shared[name] = qn
                    else:
                        shared.pop(name, None)
                elif what == "bind_alias":
                    _w, name, src = ev
                    if src != name:
                        if src in published:
                            published[name] = published[src]
                        else:
                            published.pop(name, None)
                        if src in shared:
                            shared[name] = shared[src]
                        else:
                            shared.pop(name, None)
                elif what == "bind":
                    _w, name, _ = ev
                    published.pop(name, None)
                    shared.pop(name, None)
                elif what == "mutate":
                    _w, name, how, line, col = ev
                    if name in published and ("pub", name, line) not in reported:
                        reported.add(("pub", name, line))
                        op, pline = published[name]
                        out.append(
                            self._finding(
                                fn.file,
                                line,
                                col,
                                "R9",
                                f"{how} on '{name}' after it was handed to "
                                f"'{op}' (line {pline}); the buffer may still be "
                                "in flight — publish a copy or mutate before "
                                "sending",
                            )
                        )
                    if name in shared and ("shr", name, line) not in reported:
                        reported.add(("shr", name, line))
                        out.append(
                            self._finding(
                                fn.file,
                                line,
                                col,
                                "R9",
                                f"{how} on '{name}' returned by "
                                f"'{self._short(shared[name])}' which hands out "
                                "cached/shared values; mutate a copy",
                            )
                        )
            del published, shared
        return out

    # -- static schedule -----------------------------------------------------

    def schedule_tree(self, qname: str):
        """Viable-collective schedule tree for one entry function."""
        self.run()
        return self._fn_tree(qname, frozenset())

    def _fn_tree(self, qname: str, visiting: frozenset):
        if qname in visiting:
            self.notes.append(f"recursive call dropped from schedule: {qname}")
            return None
        fn = self.functions.get(qname)
        if fn is None:
            return None
        return self._items_tree(fn.sig, visiting | {qname})

    def _items_tree(self, items: list, visiting: frozenset):
        seq = []
        for it in items:
            tag = it[0]
            if tag == "op":
                ev = it[1]
                if ev.kind == "coll":
                    seq.append({"op": ev.op, "site": ev.site})
            elif tag == "call":
                sub = self._fn_tree(it[1], visiting)
                if sub is not None:
                    seq.append(sub)
            elif tag == "choice":
                arms = []
                for arm, viable in it[1]:
                    if not viable:
                        continue
                    arms.append(self._items_tree(arm, visiting))
                keys = {json.dumps(a, sort_keys=True) for a in arms}
                if not arms or keys == {"null"}:
                    continue
                if len(keys) == 1:
                    if arms[0] is not None:
                        seq.append(arms[0])
                    continue
                dedup = []
                seen: set[str] = set()
                for a in arms:
                    k = json.dumps(a, sort_keys=True)
                    if k not in seen:
                        seen.add(k)
                        dedup.append(a if a is not None else {"seq": []})
                seq.append({"choice": dedup})
            elif tag == "loop":
                sub = self._items_tree(it[1], visiting)
                if sub is not None:
                    seq.append({"loop": sub})
        if not seq:
            return None
        if len(seq) == 1:
            return seq[0]
        return {"seq": seq}


# --------------------------------------------------------------------------
# schedule automaton (compiled from a schedule tree; used by conformance)


class ScheduleNFA:
    """Thompson NFA over (op, site) labels for one schedule tree.

    ``site=None`` in a tree node acts as a wildcard (any site for that
    op) — handy for hand-written schedules in tests.
    """

    def __init__(self):
        self._eps: list[list[int]] = []
        self._edges: list[list] = []  # state -> [((op, site), dst), ...]
        self.start = 0
        self.accept = 0

    @classmethod
    def from_tree(cls, tree) -> "ScheduleNFA":
        nfa = cls()
        s = nfa._new()
        t = nfa._build(tree, s)
        nfa.start, nfa.accept = s, t
        return nfa

    def _new(self) -> int:
        self._eps.append([])
        self._edges.append([])
        return len(self._eps) - 1

    def _build(self, node, src: int) -> int:
        if node is None:
            return src
        if "op" in node:
            dst = self._new()
            self._edges[src].append(((node["op"], node.get("site")), dst))
            return dst
        if "seq" in node:
            cur = src
            for child in node["seq"]:
                cur = self._build(child, cur)
            return cur
        if "choice" in node:
            out = self._new()
            for arm in node["choice"]:
                a = self._new()
                self._eps[src].append(a)
                end = self._build(arm, a)
                self._eps[end].append(out)
            return out
        if "loop" in node:
            head = self._new()
            self._eps[src].append(head)
            end = self._build(node["loop"], head)
            self._eps[end].append(head)
            out = self._new()
            self._eps[src].append(out)
            self._eps[end].append(out)
            return out
        raise ValueError(f"bad schedule node: {node!r}")

    def _closure(self, states) -> frozenset:
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            for t in self._eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def initial(self) -> frozenset:
        return self._closure({self.start})

    def feed(self, states: frozenset, op: str, site: str | None) -> frozenset:
        nxt = {
            dst
            for s in states
            for (label, dst) in self._edges[s]
            if label[0] == op and (label[1] is None or site is None or label[1] == site)
        }
        return self._closure(nxt) if nxt else frozenset()

    def accepts(self, states: frozenset) -> bool:
        return self.accept in states

    def expected(self, states: frozenset) -> list:
        labels = {label for s in states for (label, _dst) in self._edges[s]}
        return sorted(labels, key=lambda t: (t[0], t[1] or ""))


# --------------------------------------------------------------------------
# public API + CLI


def build_program(paths: list) -> Program:
    """Collect + interpret a source tree; returns the analyzed program."""
    prog = Program(paths)
    prog.run()
    return prog


def commflow_findings(paths: list) -> list[Finding]:
    """R7/R8/R9 findings over ``paths`` (what ``lint --commflow`` merges)."""
    return build_program(paths).findings()


def build_schedule(
    paths: list,
    root: str = DEFAULT_ROOT,
    entries: dict | None = None,
) -> dict:
    """The static comm schedule JSON document for the pipeline entries."""
    prog = build_program(paths)
    entries = dict(DEFAULT_ENTRIES if entries is None else entries)
    doc: dict = {
        "version": 1,
        "generated_by": "repro.analysis.commflow",
        "root": root,
        "entries": {},
        "notes": [],
    }
    for phase, method in entries.items():
        qname = prog.method_of(root, method) if root in prog.classes else None
        if qname is None:
            qname = f"{root}.{method}"
            if qname not in prog.functions:
                doc["notes"].append(f"entry '{phase}': {root}.{method} not found")
                continue
        tree = prog.schedule_tree(qname)
        doc["entries"][phase] = {"qname": qname, "tree": tree}
    doc["notes"].extend(prog.notes)
    return doc


def _count_ops(tree) -> int:
    if tree is None:
        return 0
    if "op" in tree:
        return 1
    if "seq" in tree:
        return sum(_count_ops(c) for c in tree["seq"])
    if "choice" in tree:
        return sum(_count_ops(c) for c in tree["choice"])
    if "loop" in tree:
        return _count_ops(tree["loop"])
    return 0


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis.commflow",
        description="Interprocedural comm-flow analysis: static schedules + R7-R9.",
    )
    ap.add_argument("paths", nargs="*", default=["src"], help="files or trees to analyze")
    ap.add_argument(
        "--schedule",
        metavar="PATH",
        default=None,
        help="write the static comm schedule JSON for the pipeline entries",
    )
    ap.add_argument("--root", default=DEFAULT_ROOT, help="pipeline class qname")
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any R7/R8/R9 finding is reported (no baseline applied)",
    )
    args = ap.parse_args(argv)

    paths = args.paths or ["src"]
    prog = build_program(paths)
    findings = prog.findings()
    for f in findings:
        print(f.render())
    print(f"{len(findings)} commflow finding(s)", file=sys.stderr)

    if args.schedule:
        doc = build_schedule(paths, root=args.root)
        Path(args.schedule).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        for phase, entry in doc["entries"].items():
            print(
                f"schedule[{phase}]: {_count_ops(entry['tree'])} collective site(s)"
                f" ({entry['qname']})",
                file=sys.stderr,
            )
        for note in doc["notes"]:
            print(f"note: {note}", file=sys.stderr)
        print(f"wrote {args.schedule}", file=sys.stderr)

    return 1 if (args.check and findings) else 0


if __name__ == "__main__":
    sys.exit(main())
