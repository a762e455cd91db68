"""Correctness tooling for the SPMD reproduction.

The paper's scalability argument rests on properties that are easy to
break silently in a growing codebase:

- **bulk-synchronous SPMD symmetry** — every rank must issue the same
  collective sequence (``BalanceTree``, ``PartitionTree``,
  ``ExtractMesh`` all hinge on matched ``allgather`` / ``allreduce`` /
  ``alltoall`` rounds), and every receive needs its matching send; a
  single rank-dependent branch around a collective deadlocks or
  corrupts a run,
- **cache purity** — the setup-amortization layer memoizes
  mesh-derived operators and lags the Stokes preconditioner; both are
  only correct if cached state is never mutated in place,
- **dtype discipline** — hot kernels assume float64 arithmetic;
  accidental float32 mixing degrades MINRES/AMG convergence invisibly.

The communication contract has one checker, at runtime; the static
linter keeps the rules that are not about communication.

``repro.analysis.sanitize``
    Runtime sanitizers: :class:`~repro.analysis.sanitize.CheckedComm`
    (collective-divergence detection and a timed ``recv`` that raise
    instead of deadlocking, plus a seeded message-delivery fuzzer) and
    :func:`~repro.analysis.sanitize.freeze` /
    :func:`~repro.analysis.sanitize.verify_frozen` hash guards wired
    into the operator cache and the lagged preconditioner.  Enabled by
    ``REPRO_SANITIZE=1``.  ``tests/test_analysis_mutations.py`` seeds
    one bug of each SPMD class and pins which mechanism catches it.

``repro.analysis.lint``
    A static AST linter with repo-specific rules R2-R6 and R10 (cache
    purity, dtype discipline, hot loops, serialization order, public
    docstrings, module-global state read in an SPMD kernel), runnable as
    ``python -m repro.analysis.lint src/``.  Stdlib-only.

``repro.analysis.linkcheck`` / ``repro.analysis.docflags``
    Documentation checks the docs CI job runs: relative links and
    anchors, and example flags named in the docs against each example's
    argparse surface.

The submodules are imported lazily so the linter stays importable
without numpy (CI runs it before installing the numeric toolchain).
"""

from __future__ import annotations

__all__ = ["docflags", "linkcheck", "lint", "sanitize"]


def __getattr__(name):
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
