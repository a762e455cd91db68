"""Markdown link checker for the repository docs (stdlib-only).

Walks ``*.md`` files, extracts inline ``[text](target)`` and
reference-style ``[label]: target`` links, and verifies that

* **relative file links** (``DESIGN.md``, ``src/repro/obs/timer.py``)
  resolve to an existing file or directory relative to the *linking*
  file, and
* **anchor links** (``#phase-timers`` or ``OBSERVABILITY.md#traces``)
  name a heading that actually exists in the target file, using the
  GitHub slug rules (lowercase, punctuation stripped, spaces to
  hyphens, duplicate slugs suffixed ``-1``, ``-2``, ...).

External links (``http://``, ``https://``, ``mailto:``) are skipped —
CI must not depend on the network.  Links inside fenced code blocks and
inline code spans are ignored.

Usage::

    python tools/linkcheck.py             # check ./**/*.md
    python tools/linkcheck.py README.md docs/

Exit status 1 if any dead link is found, listing each as
``file:line: message``.  Stdlib-only on purpose: the CI docs job runs
before installing numpy/scipy.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DeadLink",
    "github_slug",
    "heading_slugs",
    "extract_links",
    "check_file",
    "check_paths",
    "main",
]

#: directories never descended into when expanding a tree
SKIP_DIRS = {".git", ".venv", "__pycache__", "node_modules", ".pytest_cache"}

_INLINE_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^()\s]+(?:\([^()\s]*\))?)\)")
_REF_DEF_RE = re.compile(r"^\s{0,3}\[[^\]]+\]:\s+(\S+)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^\s{0,3}(```|~~~)")
_CODE_SPAN_RE = re.compile(r"`[^`]*`")
_EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# markup GitHub strips before slugging: emphasis, code ticks, images/links
_SLUG_MARKUP_RE = re.compile(r"[`*_]|!?\[([^\]]*)\]\([^)]*\)")
_SLUG_DROP_RE = re.compile(r"[^\w\- ]")


@dataclass(frozen=True)
class DeadLink:
    """One broken link: where it was written and why it is dead."""

    file: str
    line: int
    target: str
    message: str

    def render(self) -> str:
        """``file:line: message`` display form."""
        return f"{self.file}:{self.line}: {self.message}"


def github_slug(heading: str) -> str:
    """The GitHub anchor slug of one heading's text.

    Example::

        github_slug("Phase timers & traces")   # -> "phase-timers--traces"
    """
    text = _SLUG_MARKUP_RE.sub(lambda m: m.group(1) or "", heading)
    text = _SLUG_DROP_RE.sub("", text.strip().lower())
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> set[str]:
    """All anchor slugs a markdown document exposes, with GitHub's
    ``-1``/``-2`` suffixing for duplicate headings.

    Example::

        heading_slugs("# A\\n# A\\n")   # -> {"a", "a-1"}
    """
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in markdown.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = _HEADING_RE.match(line)
        if m is None:
            continue
        base = github_slug(m.group(2))
        n = counts.get(base, 0)
        counts[base] = n + 1
        slugs.add(base if n == 0 else f"{base}-{n}")
    return slugs


def extract_links(markdown: str) -> list[tuple[int, str]]:
    """``(line_number, target)`` pairs of every checkable link.

    Fenced code blocks and inline code spans are skipped; both inline
    links and reference-style definitions are collected.
    """
    out: list[tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(markdown.splitlines(), start=1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        stripped = _CODE_SPAN_RE.sub("", line)
        for m in _INLINE_LINK_RE.finditer(stripped):
            out.append((lineno, m.group(1)))
        m = _REF_DEF_RE.match(stripped)
        if m is not None:
            out.append((lineno, m.group(1)))
    return out


def _check_target(md_path: Path, lineno: int, target: str, root: Path) -> DeadLink | None:
    if _EXTERNAL_RE.match(target):
        return None  # http(s)/mailto — never checked (no network in CI)
    rel = md_path.as_posix()
    path_part, _, anchor = target.partition("#")
    path_part = path_part.split("?", 1)[0]
    if path_part:
        if path_part.startswith("/"):
            dest = (root / path_part.lstrip("/")).resolve()
        else:
            dest = (md_path.parent / path_part).resolve()
        if not dest.exists():
            return DeadLink(rel, lineno, target, f"dead link {target!r}: no such file {path_part!r}")
        anchor_file = dest
    else:
        anchor_file = md_path.resolve()
    if anchor and anchor_file.is_file() and anchor_file.suffix.lower() == ".md":
        slugs = heading_slugs(anchor_file.read_text(encoding="utf-8"))
        if anchor.lower() not in slugs:
            return DeadLink(
                rel, lineno, target,
                f"dead anchor {target!r}: no heading slug {anchor!r} in {anchor_file.name}",
            )
    return None


def check_file(path: str | Path, root: str | Path = ".") -> list[DeadLink]:
    """Dead links in one markdown file.

    Example::

        dead = check_file("README.md")
        assert dead == []
    """
    p = Path(path)
    links = extract_links(p.read_text(encoding="utf-8"))
    out = []
    for lineno, target in links:
        d = _check_target(p, lineno, target, Path(root))
        if d is not None:
            out.append(d)
    return out


def check_paths(paths: list[str | Path], root: str | Path = ".") -> list[DeadLink]:
    """Dead links across files and directory trees (``*.md``, sorted;
    the directories in :data:`SKIP_DIRS` are never descended into)."""
    files: list[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*.md"))
                if not (SKIP_DIRS & set(f.parts))
            )
        else:
            files.append(p)
    seen: set[Path] = set()
    dead: list[DeadLink] = []
    for f in files:
        if f in seen:
            continue
        seen.add(f)
        dead.extend(check_file(f, root))
    return dead


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python tools/linkcheck.py [paths]``.

    Prints each dead link as ``file:line: message`` and returns 1 if
    any were found, else 0."""
    ap = argparse.ArgumentParser(
        prog="python tools/linkcheck.py",
        description="Check relative links and anchors in markdown files.",
    )
    ap.add_argument("paths", nargs="*", default=["."], help="files or trees to check")
    ap.add_argument("--root", default=".", help="repo root for absolute (/-prefixed) links")
    args = ap.parse_args(argv)
    dead = check_paths(args.paths or ["."], root=args.root)
    for d in dead:
        print(d.render())
    print(f"{len(dead)} dead link(s)", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
