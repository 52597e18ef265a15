"""Content-addressed result cache with size-bounded LRU eviction.

The service's traffic shape (the paper's own workflow: fleets of
repeated kernel-variant runs over near-identical configurations) is
exactly what content addressing exploits — the cache key is the
canonical :func:`~repro.hacc.confighash.config_hash` of whatever
produced the entry, so *any* two requests for the same computation hit
the same entry regardless of who asked or when.

Its one entry class is ``result:<spec-hash>``: the finished
:class:`~repro.service.jobs.JobResult` products, so a duplicate request
never re-simulates.  :meth:`ContentCache.stats` counts entries per key
prefix.

Eviction is LRU over a byte budget.  Entries self-report their size
(NumPy payloads via ``nbytes``); an entry larger than the whole
budget is refused rather than evicting everything else.  Hits, misses,
evictions, and resident bytes land on ``svc.cache.*`` metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any


def payload_nbytes(value: Any) -> int:
    """Best-effort deep size of a cached payload in bytes."""
    if value is None:
        return 0
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, dict):
        return sum(payload_nbytes(v) for v in value.values()) + 64 * len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(v) for v in value) + 16 * len(value)
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (int, float, bool)):
        return 8
    # dataclass-ish objects: walk their public attribute dict
    attrs = getattr(value, "__dict__", None)
    if attrs:
        return payload_nbytes(attrs)
    return 64


@dataclass
class CacheStats:
    """Point-in-time cache accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    refused: int = 0
    entries: int = 0
    bytes: int = 0
    capacity_bytes: int = 0
    by_namespace: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "refused": self.refused,
            "entries": self.entries,
            "bytes": self.bytes,
            "capacity_bytes": self.capacity_bytes,
            "hit_rate": self.hit_rate,
            "by_namespace": dict(self.by_namespace),
        }


class ContentCache:
    """Thread-safe content-addressed LRU store.

    Workers call :meth:`get`/:meth:`put` from executor threads while
    the scheduler probes from the event loop, so every access is
    lock-guarded.  ``metrics`` (a
    :class:`~repro.observability.metrics.MetricsRegistry`) receives
    ``svc.cache.hits`` / ``svc.cache.misses`` / ``svc.cache.evictions``
    counters and the ``svc.cache.bytes`` gauge.
    """

    def __init__(self, capacity_bytes: int = 256 * 1024 * 1024, metrics=None):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.metrics = metrics
        self._lock = threading.Lock()
        #: key -> (value, nbytes); order = LRU (last = most recent)
        self._entries: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._refused = 0

    # -- core ----------------------------------------------------------
    def get(self, key: str) -> Any | None:
        """The cached value, refreshing recency; None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._count("svc.cache.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._count("svc.cache.hits")
            return entry[0]

    def peek(self, key: str) -> Any | None:
        """Like :meth:`get` but without touching recency or metrics."""
        with self._lock:
            entry = self._entries.get(key)
            return entry[0] if entry else None

    def put(self, key: str, value: Any, nbytes: int | None = None) -> bool:
        """Insert (or refresh) an entry; returns False when refused.

        An entry bigger than the whole budget is refused — evicting
        the entire cache for one oversized tenant would turn every
        other tenant's next request into a miss.
        """
        size = payload_nbytes(value) if nbytes is None else int(nbytes)
        if size > self.capacity_bytes:
            with self._lock:
                self._refused += 1
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                _evicted_key, (_val, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self._evictions += 1
                self._count("svc.cache.evictions")
            self._gauge("svc.cache.bytes", self._bytes)
        return True

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- accounting ----------------------------------------------------
    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def stats(self) -> CacheStats:
        with self._lock:
            by_ns: dict[str, int] = {}
            for key in self._entries:
                ns = key.split(":", 1)[0] if ":" in key else "?"
                by_ns[ns] = by_ns.get(ns, 0) + 1
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                refused=self._refused,
                entries=len(self._entries),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
                by_namespace=by_ns,
            )
