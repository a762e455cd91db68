"""Host fingerprint and noise guard recorded in every output document."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: BLAS/OpenMP thread pins, put in the environment before NumPy is
#: imported: unpinned, the wall of one convection run ranged 13.4-19.1 s on
#: the 2-core recording host; pinned, 14.24-14.41 s
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Pin BLAS threads and drop ``REPRO_*`` switches (sanitizer, SPMD
    backend selection) so the program runs with its defaults."""
    os.environ.update(THREAD_PINS)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout (the driver's copy), or no git
    return out.stdout.strip()


def dirty_paths(*paths: str) -> str | None:
    """``git status --porcelain`` of ``paths`` (``None`` outside git)."""
    return _git("status", "--porcelain", "--", *paths)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_name() -> str:
    import numpy as np

    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def fingerprint() -> dict:
    """Where and on what these numbers were taken."""
    import numpy as np
    import scipy

    status = dirty_paths(".")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def is_noisy(load_1min: float) -> bool:
    """More than half the cores were busy before the run started."""
    return load_1min > (os.cpu_count() or 1) / 2
