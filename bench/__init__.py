"""The repository's benchmark: five paper workloads measured end to end
(tracing off) and layer by layer (a separate traced pass).

Run ``python3 -m bench`` from the repository root; see ``bench/README.md``.
Importing this package imports neither NumPy nor ``repro``: the thread
pins in :mod:`bench.__main__` must be in the environment first.
"""
