"""Per-mesh operator cache: setup amortization across solves.

The Figure-8 breakdown makes the mantle-convection step >95% Stokes
solve, and the Stokes solve in turn spends most of its setup rebuilding
objects that depend only on the *mesh* — scatter index maps, the
block-diagonal constraint operator ``Z3``, element geometry factors,
boundary dof sets — on every Picard pass and every time step.  Between
mesh adaptations (every ``adapt_every`` ~ 16 steps) none of these change.

The cache attaches lazily to a :class:`~repro.mesh.extract.Mesh`
instance, so invalidation is structural: ``adapt()`` produces a *new*
mesh object, and with it a fresh, empty cache — no generation counters
to keep in sync, nothing stale to drop.  Global hit/miss counters are
kept for the benchmark (``mesh.opcache_hits`` / ``_misses``).

Memoization never changes arithmetic: cached values are exactly the
arrays the builder would produce, so solver results with the cache on
and off are bitwise identical (a property the regression tests pin).
The :func:`cache_disabled` context manager turns reuse off for such
comparisons without touching any call sites.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MeshOperatorCache",
    "CachedScatter",
    "operator_cache",
    "cache_disabled",
    "cache_stats",
    "reset_cache_stats",
]

_ENABLED = True


def _sanitizing() -> bool:
    """Mutation guards active?  (env check inlined so the common path
    pays no import; the guard module loads lazily on first use)"""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def _guard():
    from ..analysis import sanitize

    return sanitize


@dataclass
class _GlobalStats:
    hits: int = 0
    misses: int = 0
    bypasses: int = 0  # lookups made while the cache was disabled

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "bypasses": self.bypasses}


_STATS = _GlobalStats()


@contextmanager
def cache_disabled():
    """Temporarily disable operator-cache reuse: every builder runs on
    every lookup.  The test-side reference for cache transparency."""
    global _ENABLED
    prev, _ENABLED = _ENABLED, False
    try:
        yield
    finally:
        _ENABLED = prev


def cache_stats() -> dict:
    """Global hit/miss counters (aggregated over all meshes)."""
    return _STATS.as_dict()


def reset_cache_stats() -> None:
    _STATS.hits = 0
    _STATS.misses = 0
    _STATS.bypasses = 0


@dataclass
class MeshOperatorCache:
    """Keyed store of mesh-derived operators with hit/miss accounting."""

    store: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    #: blake2b fingerprints taken at store time under REPRO_SANITIZE=1;
    #: verified on every hit to detect in-place mutation of cached state
    tokens: dict = field(default_factory=dict)

    def get(self, key, builder):
        """Return the cached value for ``key``, building it on a miss.

        When caching is globally disabled the builder runs every time and
        nothing is stored, so repeated calls exercise identical code.
        Under ``REPRO_SANITIZE=1`` every hit re-verifies the value's
        content fingerprint and raises
        :class:`repro.analysis.sanitize.CacheMutationError` if the
        memoized value was written in place since it was stored.
        """
        if not _ENABLED:
            _STATS.bypasses += 1
            return builder()
        try:
            value = self.store[key]
        except KeyError:
            self.misses += 1
            _STATS.misses += 1
            value = builder()
            self.store[key] = value
            if _sanitizing():
                self.tokens[key] = _guard().freeze(value)
            return value
        self.hits += 1
        _STATS.hits += 1
        if _sanitizing():
            token = self.tokens.get(key)
            if token is None:
                # cached before sanitizing was switched on: adopt now
                self.tokens[key] = _guard().freeze(value)
            else:
                _guard().verify_frozen(value, token, context=f"opcache[{key!r}]")
        return value

    def clear(self) -> None:
        self.store.clear()
        self.tokens.clear()


def operator_cache(mesh) -> MeshOperatorCache:
    """The operator cache of a mesh, created on first access.

    Lives on the mesh instance, so a new mesh (after adaptation) starts
    with an empty cache and the old one is garbage-collected with the old
    mesh — structural invalidation.
    """
    cache = getattr(mesh, "_opcache", None)
    if cache is None:
        cache = MeshOperatorCache()
        mesh._opcache = cache
    return cache


class CachedScatter:
    """Precomputed COO -> CSR reduction for a fixed sparsity pattern.

    Element-matrix assembly scatters the same (rows, cols) pattern on
    every call; only the data changes with the material coefficients.
    Sorting and duplicate-merging the pattern once and replaying it with
    ``np.add.reduceat`` removes the dominant per-assembly cost.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        rows = np.asarray(rows).ravel()
        cols = np.asarray(cols).ravel()
        order = np.lexsort((cols, rows))
        r = rows[order]
        c = cols[order]
        first = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
        self.order = order
        self.starts = np.flatnonzero(first)
        counts = np.bincount(r[self.starts], minlength=shape[0])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.indices = c[self.starts].astype(np.int64)
        self.shape = shape
        self._token = (
            _guard().freeze(self._pattern_arrays()) if _sanitizing() else None
        )

    def _pattern_arrays(self) -> list[np.ndarray]:
        return [self.order, self.starts, self.indptr, self.indices]

    def assemble(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix with the cached structure and summed ``data``."""
        if _sanitizing():
            if self._token is None:
                self._token = _guard().freeze(self._pattern_arrays())
            else:
                _guard().verify_frozen(
                    self._pattern_arrays(), self._token, context="CachedScatter pattern"
                )
        d = np.add.reduceat(np.asarray(data).ravel()[self.order], self.starts)
        A = sp.csr_matrix(
            (d, self.indices, self.indptr), shape=self.shape, copy=False
        )
        # the pattern is sorted and duplicate-free by construction; telling
        # scipy prevents it from ever rewriting the shared index arrays
        A.has_sorted_indices = True
        A.has_canonical_format = True
        return A
