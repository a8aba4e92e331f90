"""Bounded LRU cache for hot query pairs.

Real distance-query traffic is heavily skewed — a small set of (source,
target) pairs (popular users, trending pages) accounts for a large share of
requests.  The serving layer therefore puts a bounded least-recently-used
cache in front of the batch engine: a hit costs one dictionary lookup instead
of a label merge, and the bound keeps memory constant under adversarial
workloads.

The cache is thread safe (one lock around the ordered dict; operations are
O(1)) and counts hits, misses and evictions so the metrics endpoint can report
the hit rate honestly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.tracing import Span

__all__ = ["CacheStats", "LRUCache", "cached_query_batch"]


def cached_query_batch(
    engine, cache: Optional["LRUCache"], sources, targets, *, span_sink=None
):
    """Answer one aligned batch through the hot-pair cache (probe-compute-store).

    The one evaluation path every cache-fronted surface shares — the asyncio
    front end (and the blocking facade over it) and the ``--warm`` replay:
    probe the cache for the whole batch, compute only the misses through
    ``engine.query_batch``, store them back, return the full distance array.
    With ``cache=None`` the engine answers directly.

    ``span_sink`` (a list, or ``None``) collects tracing spans for the batch:
    a ``cache_probe`` span covering the lookup, plus whatever the engine
    appends (a ``kernel`` span).  The engine only
    receives the sink when it advertises ``accepts_span_sink``, so arbitrary
    engine ducks keep working untraced.
    """
    engine_kwargs = {}
    if span_sink is not None and getattr(engine, "accepts_span_sink", False):
        engine_kwargs["span_sink"] = span_sink
    if cache is None:
        return engine.query_batch(sources, targets, **engine_kwargs)
    probe_start = time.perf_counter()
    distances, missing = cache.lookup_batch(sources, targets)
    if span_sink is not None:
        num_missing = int(missing.sum())
        span_sink.append(
            Span(
                "cache_probe",
                time.perf_counter() - probe_start,
                hits=len(sources) - num_missing,
                misses=num_missing,
            )
        )
    if missing.any():
        computed = engine.query_batch(
            sources[missing], targets[missing], **engine_kwargs
        )
        distances[missing] = computed
        cache.store_batch(sources[missing], targets[missing], computed)
    return distances


@dataclass
class CacheStats:
    """Monotonic counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`LRUCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none yet)."""
        if self.hits + self.misses == 0:
            return 0.0
        return self.hits / (self.hits + self.misses)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view for the metrics endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded least-recently-used map from query pairs to distances.

    Parameters
    ----------
    capacity:
        Maximum number of cached pairs; the least recently *used* (read or
        written) pair is evicted when a new pair would exceed it.
    symmetric:
        Normalise keys so that ``(s, t)`` and ``(t, s)`` share one entry —
        correct for undirected indexes, where distance is symmetric.
    """

    def __init__(self, capacity: int, *, symmetric: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.symmetric = symmetric
        self._entries: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    def _key(self, s: int, t: int) -> Tuple[int, int]:
        if self.symmetric and t < s:
            return (t, s)
        return (s, t)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        """Membership test without touching recency or counters."""
        return self._key(*pair) in self._entries

    @property
    def stats(self) -> CacheStats:
        """The live counter record (hits / misses / evictions)."""
        return self._stats

    def _get_locked(self, key: Tuple[int, int]) -> Optional[float]:
        value = self._entries.get(key)
        if value is None:
            self._stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        return value

    def _put_locked(self, key: Tuple[int, int], distance: float) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = distance
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
        self._entries[key] = distance

    def get(self, s: int, t: int) -> Optional[float]:
        """Cached distance for ``(s, t)``, or ``None``; updates recency and counters."""
        with self._lock:
            return self._get_locked(self._key(s, t))

    def put(self, s: int, t: int, distance: float) -> None:
        """Insert or refresh ``(s, t) -> distance``, evicting the oldest entry if full."""
        with self._lock:
            self._put_locked(self._key(s, t), distance)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> List[Tuple[int, int]]:
        """Cached keys from least to most recently used (snapshot copy)."""
        with self._lock:
            return list(self._entries.keys())

    # ------------------------------------------------------------------ #
    # Batch integration
    # ------------------------------------------------------------------ #

    def lookup_batch(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe the cache for every aligned pair.

        Returns ``(distances, missing)`` where ``distances`` holds the cached
        value for hits (undefined for misses) and ``missing`` marks the pairs
        the caller still has to compute and :meth:`store_batch` back.  The
        lock is taken once for the whole batch, not once per pair.
        """
        num = len(sources)
        distances = np.empty(num, dtype=np.float64)
        missing = np.zeros(num, dtype=bool)
        key = self._key
        with self._lock:
            for i in range(num):
                value = self._get_locked(key(int(sources[i]), int(targets[i])))
                if value is None:
                    missing[i] = True
                else:
                    distances[i] = value
        return distances, missing

    def store_batch(
        self, sources: np.ndarray, targets: np.ndarray, distances: np.ndarray
    ) -> None:
        """Insert every aligned ``(s, t) -> distance`` triple under one lock."""
        key = self._key
        with self._lock:
            for i in range(len(sources)):
                self._put_locked(
                    key(int(sources[i]), int(targets[i])), float(distances[i])
                )
