"""Content-addressed LRU cache semantics and accounting."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry
from repro.service.cache import ContentCache, payload_nbytes


class TestPayloadSize:
    def test_numpy_reports_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(arr) == 800

    def test_nested_dict_sums_members(self):
        payload = {"a": np.zeros(10), "b": np.zeros(10)}
        assert payload_nbytes(payload) >= 160


class TestLru:
    def test_get_put_roundtrip(self):
        cache = ContentCache(capacity_bytes=1024)
        assert cache.get("result:x") is None
        cache.put("result:x", {"v": 1}, nbytes=10)
        assert cache.get("result:x") == {"v": 1}
        assert "result:x" in cache

    def test_eviction_is_least_recently_used(self):
        cache = ContentCache(capacity_bytes=100)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        cache.get("a")  # refresh a; b becomes the LRU victim
        cache.put("c", 3, nbytes=40)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats().evictions == 1

    def test_oversized_entry_is_refused_not_destructive(self):
        cache = ContentCache(capacity_bytes=100)
        cache.put("keep", 1, nbytes=50)
        assert cache.put("huge", 2, nbytes=101) is False
        assert "keep" in cache
        assert "huge" not in cache
        assert cache.stats().refused == 1

    def test_replacing_a_key_reclaims_its_bytes(self):
        cache = ContentCache(capacity_bytes=100)
        cache.put("k", 1, nbytes=60)
        cache.put("k", 2, nbytes=60)
        assert cache.stats().bytes == 60
        assert len(cache) == 1

    def test_peek_does_not_refresh_recency_or_count(self):
        cache = ContentCache(capacity_bytes=80)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        cache.peek("a")  # no recency bump: a stays the LRU victim
        cache.put("c", 3, nbytes=40)
        assert "a" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ContentCache(capacity_bytes=0)


class TestMetricsAndStats:
    def test_hit_miss_counters_land_on_registry(self):
        metrics = MetricsRegistry()
        cache = ContentCache(capacity_bytes=1024, metrics=metrics)
        cache.get("missing")
        cache.put("k", 1, nbytes=8)
        cache.get("k")
        snap = metrics.snapshot()
        assert snap["counters"]["svc.cache.misses"] == 1
        assert snap["counters"]["svc.cache.hits"] == 1
        assert snap["gauges"]["svc.cache.bytes"] == 8

    def test_stats_by_namespace(self):
        cache = ContentCache(capacity_bytes=1024)
        cache.put("result:a", 1, nbytes=1)
        cache.put("result:b", 1, nbytes=1)
        cache.put("ic:c", 1, nbytes=1)
        stats = cache.stats()
        assert stats.by_namespace == {"result": 2, "ic": 1}
        assert stats.hit_rate == 0.0


class TestThreadSafety:
    def test_concurrent_put_get_does_not_corrupt(self):
        cache = ContentCache(capacity_bytes=10_000)
        errors = []

        def worker(wid):
            try:
                for i in range(200):
                    cache.put(f"k{wid}:{i % 20}", i, nbytes=40)
                    cache.get(f"k{wid}:{(i + 7) % 20}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.bytes <= 10_000
        assert stats.entries == len(cache)
