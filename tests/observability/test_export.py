"""Exporters: OpenMetrics exposition and the JSONL event log."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    KernelProfiler,
    MetricsRegistry,
    Severity,
    TraceRecorder,
)
from repro.observability.export import (
    EVENT_LOG_VERSION,
    iter_events,
    mangle_name,
    parse_openmetrics,
    read_events,
    to_openmetrics,
    write_event_log,
    write_openmetrics,
)
from repro.observability.health import Alert, HealthMonitor, ThresholdDetector

pytestmark = pytest.mark.observability


def sample_registry() -> MetricsRegistry:
    metrics = MetricsRegistry()
    metrics.counter("sim.steps").inc(5)
    metrics.gauge("sim.health.energy_drift").set(0.0123)
    hist = metrics.histogram("sim.kernel.interactions_per_item", edges=[1.0, 10.0, 100.0])
    for value in (0.5, 3.0, 3.0, 42.0, 640.0):
        hist.observe(value)
    return metrics


class TestOpenMetrics:
    def test_exposition_shape(self):
        text = to_openmetrics(sample_registry().snapshot())
        assert "# TYPE sim_steps counter" in text
        assert "sim_steps_total 5" in text
        assert "# TYPE sim_health_energy_drift gauge" in text
        assert 'sim_kernel_interactions_per_item_bucket{le="+Inf"} 5' in text
        assert "sim_kernel_interactions_per_item_count 5" in text
        assert text.rstrip().endswith("# EOF")

    def test_help_lines_come_from_glossary(self):
        text = to_openmetrics(sample_registry().snapshot())
        assert "# HELP sim_steps completed KDK steps (counter)" in text

    def test_round_trip_preserves_every_number(self):
        snapshot = sample_registry().snapshot()
        parsed = parse_openmetrics(to_openmetrics(snapshot))
        assert parsed["counters"]["sim_steps"] == 5
        assert parsed["gauges"]["sim_health_energy_drift"] == pytest.approx(0.0123)
        hist = parsed["histograms"]["sim_kernel_interactions_per_item"]
        original = snapshot["histograms"]["sim.kernel.interactions_per_item"]
        assert hist["edges"] == original["edges"]
        assert hist["counts"] == original["counts"]
        assert hist["count"] == original["count"]
        assert hist["sum"] == pytest.approx(original["sum"])

    def test_mangle_name(self):
        assert mangle_name("sim.pairs.cell_list.builds") == "sim_pairs_cell_list_builds"
        assert mangle_name("weird-name!") == "weird_name_"

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_openmetrics("!!! not a metric line")

    def test_write_openmetrics_accepts_registry_and_snapshot(self, tmp_path):
        metrics = sample_registry()
        p1 = write_openmetrics(tmp_path / "a.prom", metrics)
        p2 = write_openmetrics(tmp_path / "b.prom", metrics.snapshot())
        assert p1.read_text() == p2.read_text()


class TestEventLog:
    def build_sources(self):
        tracer = TraceRecorder()
        with tracer.span("step", category="step"):
            pass
        tracer.instant("retry", category="resilience", attempt=1)
        tracer.counter("sim.health.energy_drift", 0.01, category="health")
        metrics = sample_registry()
        monitor = HealthMonitor()
        monitor.attach("sim.health.energy_drift", ThresholdDetector(low=0.0))
        monitor.observe("sim.health.energy_drift", 0, 0.02)
        monitor.observe("sim.health.energy_drift", 1, -0.5)
        profiler = KernelProfiler()
        return tracer, metrics, monitor, profiler

    def test_header_first_and_versioned(self):
        events = list(iter_events(meta={"title": "t"}))
        assert events[0] == {
            "kind": "header",
            "version": EVENT_LOG_VERSION,
            "meta": {"title": "t"},
        }

    def test_all_kinds_emitted(self):
        tracer, metrics, monitor, _ = self.build_sources()
        kinds = {
            e["kind"]
            for e in iter_events(tracer=tracer, metrics=metrics, monitor=monitor)
        }
        assert kinds == {"header", "series", "alert", "span", "instant", "counter", "metrics"}

    def test_round_trip_through_file(self, tmp_path):
        tracer, metrics, monitor, _ = self.build_sources()
        path = write_event_log(
            tmp_path / "events.jsonl",
            tracer=tracer,
            metrics=metrics,
            monitor=monitor,
            meta={"title": "round trip"},
        )
        events = read_events(path)
        assert events == list(
            iter_events(
                tracer=tracer,
                metrics=metrics,
                monitor=monitor,
                meta={"title": "round trip"},
            )
        )
        series = [e for e in events if e["kind"] == "series"]
        assert [(e["step"], e["value"]) for e in series] == [(0, 0.02), (1, -0.5)]
        alerts = [e for e in events if e["kind"] == "alert"]
        assert len(alerts) == 1 and alerts[0]["step"] == 1

    def test_alerts_override_replaces_monitor_alerts(self):
        """A recovered run's cross-attempt alert list wins over the
        final (clean) monitor's empty alert log."""
        monitor = HealthMonitor()
        monitor.observe("sim.health.energy_drift", 0, 0.01)
        assert monitor.alerts == []
        override = Alert(
            series="sim.health.energy_drift",
            step=3,
            value=-0.12,
            severity=Severity.FATAL,
            detector="ewma-drift",
            message="leak",
        )
        events = list(iter_events(monitor=monitor, alerts=[override]))
        alerts = [e for e in events if e["kind"] == "alert"]
        assert len(alerts) == 1
        assert alerts[0]["step"] == 3 and alerts[0]["severity"] == "fatal"
        # plain dicts pass through too
        events = list(iter_events(alerts=[override.as_dict()]))
        assert [e for e in events if e["kind"] == "alert"] == alerts

    def test_read_events_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events(path)
        path.write_text('{"no_kind": 1}\n')
        with pytest.raises(ValueError, match="'kind' field"):
            read_events(path)

    def test_events_are_plain_json(self, tmp_path):
        tracer, metrics, monitor, profiler = self.build_sources()
        path = write_event_log(
            tmp_path / "events.jsonl",
            tracer=tracer,
            metrics=metrics,
            monitor=monitor,
            profiler=profiler,
        )
        for line in path.read_text().splitlines():
            json.loads(line)  # every line independently decodable
