"""Bounded per-worker caches for dereferenced broadcast objects.

The one way a Ray Data task reads a small broadcast side (``ray.put``
once on the driver, read inside every ``map_batches`` call): the UDF
passes the ref to ``cached_get``, which dereferences it once per worker
process, not once per batch, and without the startup and queueing cost
of an actor pool.

Each call site keeps its own module-level dict. Entries are keyed by
ObjectRef hex, so every NEW broadcast (each query run re-puts its side)
adds an entry; a long-lived worker running many queries would otherwise
accumulate dead entries forever. ``cached_get`` bounds every such cache
the same way: clear-when-full (entries are few, so a full clear beats
LRU bookkeeping; the one live ref re-populates on the next batch).

This module imports only ``ray``: store and pipeline modules run it in
every worker, and importing it through a package ``__init__`` would
pull that package's imports (and their import cycles) in with it.
"""

from __future__ import annotations

import ray

# Per-cache entry bound. Small on purpose: at any moment only the
# broadcast refs of the currently-running stages are live, and a miss
# after a clear costs one ray.get of an object that is still pinned in
# the local object store.
CACHE_MAX = 8


def cached_get(cache: dict, ref, transform=None):
    """Return the dereferenced (and optionally transformed) value of a
    broadcast ``ref``, memoized in ``cache`` with the clear-when-full
    bound. ``ref`` may also be a plain value (local/kernel path): it is
    served without ``ray.get``, cached by ``id()``, and held by the
    entry so that id cannot be reused by another object while cached.
    An ObjectRef is not held, so the cache never pins a broadcast."""
    is_ref = isinstance(ref, ray.ObjectRef)
    key = ref.hex() if is_ref else id(ref)
    hit = cache.get(key)
    if hit is not None:
        return hit[1]
    val = ray.get(ref) if is_ref else ref
    if transform is not None:
        val = transform(val)
    if len(cache) >= CACHE_MAX:
        cache.clear()
    cache[key] = (None if is_ref else ref, val)
    return val
