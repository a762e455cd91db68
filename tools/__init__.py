"""Developer checks run by CI: the SPMD linter, the markdown link checker
and the example-flag checker.  Stdlib-only scripts, run from the
repository root as ``python tools/<name>.py``."""
