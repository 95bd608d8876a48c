"""Hot-root result cache: LRU over ``(graph, algo, canonical params)``.

The paper's workload — 64 roots queried against one resident graph — is
exactly the shape a result cache wants: a small hot set of
``(graph, algo, root)`` keys asked over and over. Entries are whole
:class:`~repro.service.query.QueryResult` payloads (the arrays are
treated as immutable once published; nothing in the service mutates a
returned payload), so a hit costs one dict lookup and a move-to-front.

Catalog eviction invalidates every line of the evicted graph — a pinned
CSR going away must take its derived results with it, or a reloaded graph
under the same name (different seed, different scale) would serve stale
answers. The scan is O(cache size), which is bounded and small next to a
graph eviction.

Thread-safety: one lock around every operation. Hit/miss/insert/evict/
invalidate counters feed the per-tenant report through the service's
metrics registry; the cache itself keeps plain integers so it is usable
standalone.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError
from repro.utils.locks import NamedLock


class ResultCache:
    """Bounded LRU keyed by :func:`repro.service.query.cache_key`."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lines: OrderedDict[tuple, object] = OrderedDict()
        self._lock = NamedLock("ResultCache._lock", fast=True)
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._lines)

    def get(self, key: tuple) -> object | None:
        """The cached payload for ``key`` (marked most-recent), or None."""
        with self._lock:
            value = self._lines.get(key)
            if value is None:
                self.misses += 1
                return None
            self._lines.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value: object) -> None:
        """Insert/refresh a line, evicting the least-recent past capacity."""
        with self._lock:
            if key in self._lines:
                self._lines.move_to_end(key)
            self._lines[key] = value
            self.inserts += 1
            while len(self._lines) > self.capacity:
                self._lines.popitem(last=False)
                self.evictions += 1

    def invalidate_graph(self, graph: str) -> int:
        """Drop every line of ``graph`` (cache keys lead with the graph
        name); returns how many lines went away."""
        with self._lock:
            doomed = [k for k in self._lines if k[0] == graph]
            for k in doomed:
                del self._lines[k]
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._lines)
            self._lines.clear()

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._lines),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "inserts": self.inserts,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hit_rate(),
            }
