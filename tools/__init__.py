"""Developer checks run by CI: the SPMD linter, the markdown link checker,
the example-flag checker and the uncalled-function probe.  Stdlib-only
scripts, run from the repository root as ``python tools/<name>.py``."""
