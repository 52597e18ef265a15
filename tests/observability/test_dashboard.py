"""Terminal dashboard: sparklines, state folding, frame rendering."""

from __future__ import annotations

import io

import pytest

from repro.observability.dashboard import (
    DashboardState,
    LiveDashboard,
    load_events,
    render,
    sparkline,
)
from repro.observability.export import write_event_log
from repro.observability.health import HealthMonitor, ThresholdDetector
from repro.observability.tracing import TraceRecorder

pytestmark = pytest.mark.observability


class TestSparkline:
    def test_scales_to_window(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 3

    def test_flat_series_renders_mid_blocks(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▄▄▄"

    def test_non_finite_marked(self):
        line = sparkline([0.0, float("nan"), 1.0, float("inf")])
        assert line[1] == "!" and line[3] == "!"

    def test_all_non_finite(self):
        assert sparkline([float("nan")] * 3) == "!!!"

    def test_window_truncates(self):
        assert len(sparkline(range(100), width=10)) == 10

    def test_empty(self):
        assert sparkline([]) == ""


class TestDashboardState:
    def test_series_records_set_step_count(self):
        state = DashboardState()
        state.apply({"kind": "series", "name": "s", "step": 0, "value": 1.0})
        state.apply({"kind": "series", "name": "s", "step": 4, "value": 2.0})
        assert state.steps == 5
        assert state.values("s") == [1.0, 2.0]

    def test_counter_skipped_when_series_already_fed(self):
        """The monitor mirrors each series point onto a trace counter
        track; the dashboard must not double-count the pair."""
        state = DashboardState()
        state.apply({"kind": "series", "name": "s", "step": 0, "value": 1.0})
        state.apply({"kind": "counter", "name": "s", "ts": 0.1, "pid": 0, "value": 1.0})
        assert state.values("s") == [1.0]

    def test_counter_only_series_still_sparklines(self):
        state = DashboardState()
        for i in range(3):
            state.apply(
                {"kind": "counter", "name": "c", "ts": 0.1 * i, "pid": 0, "value": float(i)}
            )
        assert state.values("c") == [0.0, 1.0, 2.0]

    def test_step_spans_backfill_only_without_series(self):
        """Step spans repeat per rank and per recovery attempt, so
        they are a last-resort step count."""
        bare = DashboardState()
        for _ in range(6):  # 2 ranks x 3 steps
            bare.apply({"kind": "span", "category": "step", "duration": 0.5})
        assert bare.steps == 6  # no better signal available

        informed = DashboardState()
        informed.apply({"kind": "series", "name": "s", "step": 2, "value": 1.0})
        for _ in range(6):
            informed.apply({"kind": "span", "category": "step", "duration": 0.5})
        assert informed.steps == 3  # series step index wins

    def test_step_rate_prefers_health_series(self):
        state = DashboardState()
        for step in range(4):
            state.apply(
                {
                    "kind": "series",
                    "name": "sim.health.step_seconds",
                    "step": step,
                    "value": 0.5,
                }
            )
        # spans from 2 ranks would double the elapsed time
        for _ in range(8):
            state.apply({"kind": "span", "category": "step", "duration": 0.5})
        assert state.step_rate == pytest.approx(2.0)

    def test_alerts_and_instants_accumulate(self):
        state = DashboardState()
        state.apply({"kind": "alert", "series": "s", "step": 1, "severity": "fatal"})
        state.apply({"kind": "instant", "name": "retry", "category": "resilience", "args": {}})
        assert len(state.alerts) == 1
        assert len(state.events) == 1


class TestRender:
    def make_state(self):
        state = DashboardState()
        state.meta = {"title": "test run"}
        for step in range(6):
            state.apply(
                {
                    "kind": "series",
                    "name": "sim.health.energy_drift",
                    "step": step,
                    "value": 0.01 * step,
                }
            )
        return state

    def test_header_and_sparkline(self):
        frame = render(self.make_state())
        assert "test run" in frame
        assert "step 6" in frame
        assert "energy drift" in frame
        assert "0 alert(s) (0 fatal)" in frame

    def test_alert_section(self):
        state = self.make_state()
        state.apply(
            {
                "kind": "alert",
                "series": "sim.health.energy_drift",
                "step": 3,
                "severity": "fatal",
                "message": "leaking",
            }
        )
        frame = render(state)
        assert "1 alert(s) (1 fatal)" in frame
        assert "[FATAL" in frame and "leaking" in frame

    def test_empty_state_renders(self):
        frame = render(DashboardState())
        assert "no health series recorded" in frame

    def test_width_respected(self):
        frame = render(self.make_state(), width=60)
        assert all(len(line) <= 60 for line in frame.splitlines())


class TestLoadEvents:
    def test_round_trip_from_event_log(self, tmp_path):
        tracer = TraceRecorder()
        monitor = HealthMonitor(tracer=tracer)
        monitor.attach("sim.health.energy_drift", ThresholdDetector(low=0.0))
        for step, value in enumerate([0.01, 0.02, -0.3]):
            monitor.observe("sim.health.energy_drift", step, value)
        path = write_event_log(
            tmp_path / "events.jsonl",
            tracer=tracer,
            monitor=monitor,
            meta={"title": "replay"},
        )
        state = load_events(path)
        assert state.meta["title"] == "replay"
        assert state.values("sim.health.energy_drift") == [0.01, 0.02, -0.3]
        assert len(state.alerts) == 1
        frame = render(state)
        assert "replay" in frame and "1 alert(s)" in frame


class TestLiveDashboard:
    def test_pipe_mode_prints_on_cadence(self):
        stream = io.StringIO()
        live = LiveDashboard(stream, plain_every=3)
        for step in range(6):
            live.update(
                [{"kind": "series", "name": "sim.health.subcycles", "step": step, "value": 1.0}]
            )
        frames = stream.getvalue().count("repro telemetry")
        assert frames == 3  # first update + every 3rd

    def test_finish_always_prints_final_frame(self):
        stream = io.StringIO()
        live = LiveDashboard(stream, plain_every=100)
        live.update(
            [{"kind": "series", "name": "sim.health.subcycles", "step": 0, "value": 1.0}]
        )
        live.finish()
        assert stream.getvalue().count("step 1") >= 1

    def test_tty_mode_uses_ansi_repaint(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        live = LiveDashboard(stream)
        live.update([])
        live.update([])
        assert "\x1b[2J" in stream.getvalue()  # initial clear
        assert "\x1b[H\x1b[J" in stream.getvalue()  # repaint
