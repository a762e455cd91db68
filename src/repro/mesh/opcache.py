"""Per-mesh operator cache: setup amortization across solves.

The Figure-8 breakdown makes the mantle-convection step >95% Stokes
solve, and the Stokes solve in turn spends most of its setup rebuilding
objects that depend only on the *mesh* — the constraint-folded element
gathers, the block-diagonal constraint operator ``Z3``, element geometry factors,
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

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..parallel.sanitize import freeze, sanitize_enabled, verify_frozen

__all__ = [
    "MeshOperatorCache",
    "operator_cache",
    "cache_disabled",
    "cache_stats",
    "reset_cache_stats",
]

_ENABLED = True


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
        :class:`repro.parallel.sanitize.CacheMutationError` if the
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
            if sanitize_enabled():
                self.tokens[key] = freeze(value)
            return value
        self.hits += 1
        _STATS.hits += 1
        if sanitize_enabled():
            token = self.tokens.get(key)
            if token is None:
                # cached before sanitizing was switched on: adopt now
                self.tokens[key] = freeze(value)
            else:
                verify_frozen(value, token, context=f"opcache[{key!r}]")
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
