"""Example-flag consistency checker for the repository docs (stdlib-only).

The README and the subsystem guides quote command lines like
``python examples/parallel_amr.py 4 --trace trace.json``.  Those
snippets drift: a flag gets renamed in the example's ``argparse`` setup,
or a doc recommends a flag the example never had.  This checker pins the
two together:

* **ground truth** — every ``examples/*.py`` is parsed with :mod:`ast`
  and its ``add_argument("--flag", ...)`` calls collected (no import, no
  execution: stdlib-only so the CI docs job can run it before numpy is
  available);
* **claims** — every ``*.md`` file is scanned for command lines that
  mention ``examples/<name>.py``; the ``--flag`` tokens on that line
  (and on backslash-continued lines, as in the README's multi-line
  invocations) are the documented flags.

Every documented flag must exist in the example's parser, and any flag
documented for an example that has *no* argument parser at all (e.g.
``quickstart.py``) is an error.  The converse is deliberately not
enforced — docs may legitimately show a subset of the flags.

Usage::

    python tools/docflags.py            # check ./ (repo root)
    python tools/docflags.py path/to/repo

Exit status 1 if any drift is found, listing each as
``file:line: message``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FlagDrift",
    "example_flags",
    "documented_flags",
    "check_repo",
    "main",
]

#: directories never descended into when expanding a tree
SKIP_DIRS = {".git", ".venv", "__pycache__", "node_modules", ".pytest_cache"}

_EXAMPLE_RE = re.compile(r"examples/(\w+)\.py")
_FLAG_RE = re.compile(r"(--[A-Za-z][\w-]*)")


@dataclass(frozen=True)
class FlagDrift:
    """One documented flag that the example's parser does not define."""

    file: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.message}"


def example_flags(root: Path) -> dict:
    """Map example name -> set of ``--flags`` its parser defines, or
    ``None`` for examples with no ``add_argument`` calls at all (they
    take no command-line arguments)."""
    out: dict = {}
    for path in sorted((root / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        flags: set | None = None
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                continue
            if flags is None:
                flags = set()
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if arg.value.startswith("--"):
                        flags.add(arg.value)
        out[path.stem] = flags
    return out


_BULLET_RE = re.compile(r"^(\s*)[-*]\s")


def _command_lines(text: str):
    """Yield ``(lineno, logical_line)`` with continuations joined onto
    the line that starts them (lineno is where it starts): backslash
    continuations (multi-line shell snippets) and soft-wrapped markdown
    bullets (a bullet's indented follow-on lines, where the README lists
    per-example flags)."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start = i
        logical = lines[i]
        while logical.rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            logical = logical.rstrip().rstrip("\\") + " " + lines[i]
        bullet = _BULLET_RE.match(lines[start])
        if bullet is not None:
            indent = len(bullet.group(1))
            while (
                i + 1 < len(lines)
                and lines[i + 1].strip()
                and not _BULLET_RE.match(lines[i + 1])
                and len(lines[i + 1]) - len(lines[i + 1].lstrip()) > indent
            ):
                i += 1
                logical = logical.rstrip() + " " + lines[i].strip()
        yield start + 1, logical
        i += 1


_SENTENCE_END_RE = re.compile(r"\.(\s|$)")


def documented_flags(md_path: Path):
    """Yield ``(lineno, example_name, flag)`` for every ``--flag`` that a
    command line or prose sentence mentioning ``examples/<name>.py``
    documents.  Attribution stops at the end of the sentence so a later
    sentence about a different tool's flags is not charged to the
    example."""
    for lineno, line in _command_lines(md_path.read_text()):
        m = _EXAMPLE_RE.search(line)
        if m is None:
            continue
        # only tokens after the script path, before the sentence ends,
        # belong to its command line
        rest = line[m.end():]
        end = _SENTENCE_END_RE.search(rest)
        if end is not None:
            rest = rest[: end.start()]
        for flag in _FLAG_RE.findall(rest):
            yield lineno, m.group(1), flag


def check_repo(root: Path) -> list:
    """All flag drifts in the repository's markdown files."""
    root = Path(root)
    known = example_flags(root)
    drifts: list = []
    md_files = [
        p
        for p in sorted(root.rglob("*.md"))
        if not any(part in SKIP_DIRS for part in p.parts)
    ]
    for md in md_files:
        rel = md.relative_to(root)
        for lineno, name, flag in documented_flags(md):
            if name not in known:
                drifts.append(
                    FlagDrift(str(rel), lineno, f"unknown example '{name}.py'")
                )
            elif known[name] is None:
                drifts.append(
                    FlagDrift(
                        str(rel),
                        lineno,
                        f"examples/{name}.py takes no flags but doc shows {flag}",
                    )
                )
            elif flag not in known[name]:
                drifts.append(
                    FlagDrift(
                        str(rel),
                        lineno,
                        f"examples/{name}.py has no {flag} flag "
                        f"(has: {', '.join(sorted(known[name]))})",
                    )
                )
    return drifts


def main(argv: list | None = None) -> int:
    """CLI entry point; prints one drift per line, exit 1 on any."""
    ap = argparse.ArgumentParser(
        description="check doc-quoted example flags against argparse reality"
    )
    ap.add_argument("root", nargs="?", default=".", help="repository root")
    args = ap.parse_args(argv)
    drifts = check_repo(Path(args.root))
    for d in drifts:
        print(d)
    n_md = len(list(Path(args.root).rglob("*.md")))
    print(
        f"[docflags] {len(drifts)} drift(s) across {n_md} markdown file(s)",
        file=sys.stderr,
    )
    return 1 if drifts else 0


if __name__ == "__main__":
    raise SystemExit(main())
