"""The JSONL event log and its Chrome-trace conversion."""

from __future__ import annotations

import json

import pytest

from repro.observability.dashboard import load_events, render
from repro.observability.export import (
    EVENT_LOG_VERSION,
    chrome_trace,
    iter_events,
    read_events,
    write_event_log,
)
from repro.observability.health import Alert, HealthMonitor, Severity, ThresholdDetector
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder

pytestmark = pytest.mark.observability


def sample_registry() -> MetricsRegistry:
    metrics = MetricsRegistry()
    metrics.counter("sim.steps").inc(5)
    metrics.gauge("sim.health.energy_drift").set(0.0123)
    hist = metrics.histogram("sim.kernel.interactions_per_item", edges=[1.0, 10.0, 100.0])
    for value in (0.5, 3.0, 3.0, 42.0, 640.0):
        hist.observe(value)
    return metrics


class FakeClock:
    """A monotonic clock the tests advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def golden_recorder() -> TraceRecorder:
    """Two named rank tracks with nested spans, instants and counters,
    a device-track span and an explicit second thread lane."""
    clock = FakeClock()
    rec = TraceRecorder(clock=clock)
    rec.name_track(0, "rank 0")
    with rec.span("step 0", category="step", step=0):
        clock.advance(0.5)
        with rec.span("upGeo", category="kernel"):
            clock.advance(0.25)
            rec.instant("fault:kill_rank", category="fault", rank=1)
        rec.counter("sim.health.energy_drift", 0.01, category="health")
        clock.advance(0.125)
    with rec.track(1, name="rank 1"):
        with rec.span("step 0", category="step", step=0):
            clock.advance(1.0)
            with rec.span("upCor", category="kernel"):
                clock.advance(0.5)
        rec.instant("retry", category="resilience", attempt=1)
        rec.counter("sim.health.energy_drift", -0.02, category="health")
    rec.add_span(
        "upGeo", begin=0.0, end=2.5e-6, pid=100, tid=3, category="device",
        args={"occupancy": 0.5},
    )
    rec.counter("svc.queue.depth", 2.0, pid=0, tid=1)
    return rec


#: the Chrome trace the recorder itself exported for :func:`golden_recorder`,
#: generated once before that export became a conversion of the event log
GOLDEN_CHROME_TRACE = {
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "rank 0"}},
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "rank 1"}},
        {"name": "step 0", "cat": "step", "ph": "X", "ts": 0.0, "dur": 875000.0, "pid": 0, "tid": 0, "args": {"depth": 0, "path": "step 0", "step": 0}},
        {"name": "upGeo", "cat": "kernel", "ph": "X", "ts": 500000.0, "dur": 250000.0, "pid": 0, "tid": 0, "args": {"depth": 1, "path": "step 0/upGeo"}},
        {"name": "step 0", "cat": "step", "ph": "X", "ts": 875000.0, "dur": 1500000.0, "pid": 1, "tid": 0, "args": {"depth": 0, "path": "step 0", "step": 0}},
        {"name": "upCor", "cat": "kernel", "ph": "X", "ts": 1875000.0, "dur": 500000.0, "pid": 1, "tid": 0, "args": {"depth": 1, "path": "step 0/upCor"}},
        {"name": "upGeo", "cat": "device", "ph": "X", "ts": 0.0, "dur": 2.5, "pid": 100, "tid": 3, "args": {"depth": 0, "occupancy": 0.5, "path": "upGeo"}},
        {"name": "fault:kill_rank", "cat": "fault", "ph": "i", "ts": 750000.0, "pid": 0, "tid": 0, "s": "t", "args": {"rank": 1}},
        {"name": "retry", "cat": "resilience", "ph": "i", "ts": 2375000.0, "pid": 1, "tid": 0, "s": "t", "args": {"attempt": 1}},
        {"name": "sim.health.energy_drift", "cat": "health", "ph": "C", "ts": 750000.0, "pid": 0, "tid": 0, "args": {"value": 0.01}},
        {"name": "svc.queue.depth", "cat": "counter", "ph": "C", "ts": 2375000.0, "pid": 0, "tid": 1, "args": {"value": 2.0}},
        {"name": "sim.health.energy_drift", "cat": "health", "ph": "C", "ts": 2375000.0, "pid": 1, "tid": 0, "args": {"value": -0.02}},
    ],
}


#: the dashboard frame the same recorder's event log rendered before the
#: log gained track records and the span/instant/counter fields
GOLDEN_FRAME = """\
────────────────────────────────────────────────────────────────────────────────
 golden · step 2 · 0.84 steps/s · 0 alert(s) (0 fatal)
────────────────────────────────────────────────────────────────────────────────
     energy drift █▁  last=-0.02
────────────────────────────────────────────────────────────────────────────────
 events
  fault:kill_rank [fault] rank=1
  retry [resilience] attempt=1
────────────────────────────────────────────────────────────────────────────────
"""


class TestChromeConversion:
    def test_conversion_equals_the_recorders_own_export(self, tmp_path):
        path = write_event_log(tmp_path / "events.jsonl", tracer=golden_recorder())
        assert chrome_trace(read_events(path)) == GOLDEN_CHROME_TRACE

    def test_dashboard_frame_is_unchanged(self, tmp_path):
        path = write_event_log(
            tmp_path / "events.jsonl", tracer=golden_recorder(), meta={"title": "golden"}
        )
        assert render(load_events(path), width=80) == GOLDEN_FRAME.rstrip("\n")

    def test_perfetto_command_prints_the_conversion(self, tmp_path, capsys):
        from repro.__main__ import main

        path = write_event_log(tmp_path / "events.jsonl", tracer=golden_recorder())
        assert main(["perfetto", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == GOLDEN_CHROME_TRACE

    def test_perfetto_command_rejects_a_missing_log(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["perfetto", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestEventLog:
    def build_sources(self):
        tracer = TraceRecorder()
        tracer.name_track(0, "rank 0")
        with tracer.span("step", category="step"):
            pass
        tracer.instant("retry", category="resilience", attempt=1)
        tracer.counter("sim.health.energy_drift", 0.01, category="health")
        metrics = sample_registry()
        monitor = HealthMonitor()
        monitor.attach("sim.health.energy_drift", ThresholdDetector(low=0.0))
        monitor.observe("sim.health.energy_drift", 0, 0.02)
        monitor.observe("sim.health.energy_drift", 1, -0.5)
        return tracer, metrics, monitor

    def test_header_first_and_versioned(self):
        events = list(iter_events(meta={"title": "t"}))
        assert events[0] == {
            "kind": "header",
            "version": EVENT_LOG_VERSION,
            "meta": {"title": "t"},
        }

    def test_all_kinds_emitted(self):
        tracer, metrics, monitor = self.build_sources()
        kinds = {
            e["kind"]
            for e in iter_events(tracer=tracer, metrics=metrics, monitor=monitor)
        }
        assert kinds == {
            "header", "series", "alert", "track", "span", "instant", "counter", "metrics"
        }

    def test_round_trip_through_file(self, tmp_path):
        tracer, metrics, monitor = self.build_sources()
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
        tracer, metrics, monitor = self.build_sources()
        path = write_event_log(
            tmp_path / "events.jsonl",
            tracer=tracer,
            metrics=metrics,
            monitor=monitor,
        )
        for line in path.read_text().splitlines():
            json.loads(line)  # every line independently decodable
