"""Tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.observability.metrics import (
    INTERACTIONS_BUCKETS,
    METRIC_GLOSSARY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

pytestmark = pytest.mark.observability


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("x")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == pytest.approx(7.0)


class TestHistogramBuckets:
    def test_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", edges=(1.0, 2.0, 4.0))
        # v <= edge lands in that edge's bucket
        h.observe(0.5)  # bucket 0 (<= 1)
        h.observe(1.0)  # bucket 0 (== edge, inclusive)
        h.observe(1.5)  # bucket 1 (<= 2)
        h.observe(4.0)  # bucket 2 (== last edge)
        h.observe(100.0)  # overflow
        assert h.export()["counts"] == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)

    def test_n_edges_gives_n_plus_one_buckets(self):
        h = Histogram("h", edges=INTERACTIONS_BUCKETS)
        assert len(h.export()["counts"]) == len(INTERACTIONS_BUCKETS) + 1

    def test_rejects_empty_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Histogram("h", edges=())

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", edges=(1.0, 1.0, 2.0))

    def test_export_shape(self):
        h = Histogram("h", edges=(1.0, 2.0))
        h.observe(1.5)
        assert h.export() == {
            "edges": [1.0, 2.0],
            "counts": [0, 1, 0],
            "count": 1,
            "sum": 1.5,
        }


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            reg.gauge("a")

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_delta_subtracts_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        reg.gauge("g").set(3.0)
        before = reg.snapshot()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(9.0)
        reg.gauge("g").set(4.0)
        delta = reg.delta(before)
        assert delta["counters"]["c"] == pytest.approx(2.0)
        assert delta["histograms"]["h"]["counts"] == [0, 1]
        assert delta["histograms"]["h"]["count"] == 1
        # gauges report their current value, not a difference
        assert delta["gauges"]["g"] == pytest.approx(4.0)

    def test_delta_handles_metrics_created_since_snapshot(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("new").inc(3)
        assert reg.delta(before)["counters"]["new"] == pytest.approx(3.0)


class TestGlossary:
    def test_canonical_names_documented(self):
        # the names the built-in instrumentation emits must stay documented
        for name in (
            "sim.steps",
            "sim.kernel.launches",
            "sim.kernel.interactions",
            "device.kernel.seconds",
            "mpi.collective.calls",
            "resilience.rank_failures",
            "resilience.retries",
            "checkpoint.bytes",
        ):
            assert name in METRIC_GLOSSARY
