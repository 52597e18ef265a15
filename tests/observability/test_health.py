"""Health monitors: series buffers, detectors, alerts, escalation.

The detector tests run on *synthetic* series so each failure mode is
isolated: a slow injected leak must trip the EWMA drift detector, a
single-step spike must trip the z-score detector, and a clean (healthy
but noisy) series must trip neither.
"""

from __future__ import annotations

import math

import pytest

from repro.hacc.validation import Severity
from repro.observability import MetricsRegistry, TraceRecorder
from repro.observability.health import (
    ENERGY_DRIFT,
    HEALTH_SERIES,
    KINETIC_ENERGY,
    MASS_DRIFT,
    MOMENTUM_DRIFT,
    STEP_SECONDS,
    SUBCYCLES,
    THERMAL_ENERGY,
    TOTAL_ENERGY,
    Alert,
    EWMADriftDetector,
    HealthEscalation,
    HealthMonitor,
    HealthPolicy,
    SeriesBuffer,
    ThresholdDetector,
    ZScoreSpikeDetector,
    default_monitor,
)

pytestmark = pytest.mark.observability

#: a healthy energy-drift series: small positive residuals, growing
#: slowly with structure formation (measured shape of a clean run)
CLEAN_DRIFT = [0.0009, 0.0044, 0.0157, 0.0446, 0.0381, 0.0502, 0.0475, 0.0523]


class TestSeriesBuffer:
    def test_appends_and_views(self):
        buf = SeriesBuffer("s", capacity=8)
        assert not buf
        buf.append(0, 1.0)
        buf.append(1, 2.0)
        assert len(buf) == 2
        assert buf.steps == [0, 1]
        assert buf.values == [1.0, 2.0]
        assert buf.points == [(0, 1.0), (1, 2.0)]
        assert buf.last() == (1, 2.0)

    def test_ring_evicts_oldest(self):
        buf = SeriesBuffer("s", capacity=3)
        for i in range(6):
            buf.append(i, float(i))
        assert buf.steps == [3, 4, 5]

    def test_window(self):
        buf = SeriesBuffer("s")
        for i in range(5):
            buf.append(i, float(i))
        assert buf.window(2) == [3.0, 4.0]
        assert buf.window(99) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.window(0) == []

    def test_empty_last_raises(self):
        with pytest.raises(IndexError):
            SeriesBuffer("s").last()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SeriesBuffer("s", capacity=0)


class TestThresholdDetector:
    def test_band(self):
        det = ThresholdDetector(low=-1.0, high=1.0)
        assert det.update(0, 0.0) is None
        assert "below the floor" in det.update(1, -1.5)
        assert "above the ceiling" in det.update(2, 2.0)

    def test_nan_always_alerts(self):
        det = ThresholdDetector(high=10.0)
        assert det.update(0, float("nan")) == "value is NaN"

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            ThresholdDetector()


class TestEWMADriftDetector:
    def test_slow_leak_is_caught(self):
        """A 5%/step downward shift fires within a few steps even
        though every absolute value stays far inside any hard band."""
        det = EWMADriftDetector(tolerance=0.03, direction="down")
        fired_at = None
        for step, clean in enumerate(CLEAN_DRIFT):
            leaking = clean - (0.12 if step >= 3 else 0.0)
            if det.update(step, leaking) is not None:
                fired_at = step
                break
        assert fired_at == 3  # the first leaking step

    def test_clean_series_is_silent(self):
        det = EWMADriftDetector(tolerance=0.03, direction="down")
        assert all(det.update(s, v) is None for s, v in enumerate(CLEAN_DRIFT))

    def test_direction_down_ignores_heating(self):
        det = EWMADriftDetector(tolerance=0.01, direction="down")
        # a shock: sudden extra heating is physical, not a leak
        for step, value in enumerate([0.001, 0.002, 0.001, 0.3, 0.32]):
            assert det.update(step, value) is None

    def test_direction_up_and_both(self):
        up = EWMADriftDetector(tolerance=0.01, warmup=1, direction="up")
        both = EWMADriftDetector(tolerance=0.01, warmup=1, direction="both")
        for det in (up, both):
            det.update(0, 0.0)
            det.update(1, 0.0)
        assert up.update(2, 0.5) is not None
        assert both.update(2, -0.5) is not None

    def test_warmup_defers_arming(self):
        det = EWMADriftDetector(tolerance=0.01, warmup=4, direction="both")
        # the huge jump lands while still warming up: no alert
        assert det.update(0, 0.0) is None
        assert det.update(1, 5.0) is None

    def test_step_change_is_absorbed(self):
        """The mean keeps updating through alerts, so a one-time level
        shift stops alarming once the history catches up."""
        det = EWMADriftDetector(tolerance=0.05, alpha=0.5, warmup=1, direction="both")
        for step in range(4):
            det.update(step, 0.0)
        messages = [det.update(4 + i, 1.0) for i in range(8)]
        assert messages[0] is not None
        assert messages[-1] is None

    def test_nan_alerts(self):
        det = EWMADriftDetector(tolerance=0.1)
        assert det.update(0, float("nan")) == "value is NaN"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": 0.1, "alpha": 0.0},
            {"tolerance": 0.1, "alpha": 1.5},
            {"tolerance": 0.1, "direction": "sideways"},
            {"tolerance": 0.1, "warmup": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EWMADriftDetector(**kwargs)


class TestZScoreSpikeDetector:
    def test_spike_is_caught(self):
        det = ZScoreSpikeDetector(z_threshold=6.0, min_points=4)
        base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02]
        assert all(det.update(s, v) is None for s, v in enumerate(base))
        message = det.update(len(base), 5.0)
        assert message is not None and "spikes" in message

    def test_clean_noise_is_silent(self):
        det = ZScoreSpikeDetector(z_threshold=6.0, min_points=4)
        values = [1.0 + 0.05 * math.sin(i) for i in range(32)]
        assert all(det.update(s, v) is None for s, v in enumerate(values))

    def test_min_std_floor_suppresses_roundoff(self):
        det = ZScoreSpikeDetector(z_threshold=6.0, min_points=3, min_std=1e-3)
        for s in range(5):
            det.update(s, 1.0)
        # 1e-4 above a perfectly flat series: within the std floor
        assert det.update(5, 1.0 + 1e-4) is None

    def test_needs_min_points(self):
        det = ZScoreSpikeDetector(min_points=4)
        assert det.update(0, 0.0) is None
        assert det.update(1, 100.0) is None  # only 1 point of history


class TestHealthMonitor:
    def test_observe_feeds_series_and_sinks(self):
        tracer = TraceRecorder()
        metrics = MetricsRegistry()
        monitor = HealthMonitor(tracer=tracer, metrics=metrics)
        monitor.observe("sim.health.energy_drift", 0, 0.01)
        assert monitor.series("sim.health.energy_drift").values == [0.01]
        assert metrics.gauge("sim.health.energy_drift").value == 0.01
        assert [c.name for c in tracer.counters] == ["sim.health.energy_drift"]

    def test_alerts_recorded_and_mirrored(self):
        tracer = TraceRecorder()
        metrics = MetricsRegistry()
        seen: list[Alert] = []
        monitor = HealthMonitor(tracer=tracer, metrics=metrics, on_alert=seen.append)
        monitor.attach("s", ThresholdDetector(high=1.0), severity=Severity.WARN)
        monitor.observe("s", 0, 0.5)
        monitor.observe("s", 1, 2.0)
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.step == 1 and alert.severity is Severity.WARN
        assert seen == [alert]
        assert metrics.counter("sim.health.alerts").value == 1
        assert [i.name for i in tracer.instants] == ["alert"]
        assert tracer.instants[0].args["series"] == "s"

    def test_escalate_raises_only_fresh_fatals(self):
        monitor = HealthMonitor()
        monitor.attach("s", ThresholdDetector(high=0.0), severity=Severity.FATAL)
        monitor.observe("s", 0, 1.0)
        with pytest.raises(HealthEscalation) as excinfo:
            monitor.escalate()
        assert excinfo.value.alerts == tuple(monitor.alerts)
        # already escalated: a second call is silent
        monitor.escalate()
        # a *new* fatal alert escalates again
        monitor.observe("s", 1, 2.0)
        with pytest.raises(HealthEscalation):
            monitor.escalate()

    def test_warn_alerts_never_escalate(self):
        monitor = HealthMonitor()
        monitor.attach("s", ThresholdDetector(high=0.0), severity=Severity.WARN)
        monitor.observe("s", 0, 1.0)
        monitor.escalate()
        assert len(monitor.alerts) == 1

    def test_snapshot_hides_internal_series(self):
        monitor = HealthMonitor()
        monitor.observe("sim.health.subcycles", 0, 1)
        monitor.series("_scale_factor").append(0, 0.01)
        snap = monitor.snapshot()
        assert set(snap["series"]) == {"sim.health.subcycles"}
        assert snap["alerts"] == []

    def test_summary_counts(self):
        monitor = HealthMonitor()
        monitor.attach("s", ThresholdDetector(high=0.0), severity=Severity.FATAL)
        monitor.observe("s", 0, 1.0)
        text = monitor.summary()
        assert "1 alert(s) (1 fatal)" in text


class TestObserveStep:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        metrics = MetricsRegistry()
        driver = AdiabaticDriver(
            SimulationConfig(n_per_side=6, n_steps=5)
        )
        driver.metrics = metrics
        monitor = default_monitor(metrics=metrics)
        driver.health = monitor
        driver.run()
        return driver, monitor

    def test_all_standard_series_recorded(self, run):
        driver, monitor = run
        names = set(monitor.series_names())
        # guard_hit_rate only exists when a KernelGuard is screening
        # (the resilience runner's path); everything else is standard
        for name in HEALTH_SERIES:
            if name == "sim.health.guard_hit_rate":
                continue
            assert name in names, name

    def test_series_lengths(self, run):
        driver, monitor = run
        steps = len(driver.diagnostics)
        for name in (
            KINETIC_ENERGY,
            THERMAL_ENERGY,
            TOTAL_ENERGY,
            MOMENTUM_DRIFT,
            MASS_DRIFT,
            STEP_SECONDS,
            SUBCYCLES,
        ):
            assert len(monitor.series(name)) == steps, name
        # the drift series needs a previous step: one point fewer
        assert len(monitor.series(ENERGY_DRIFT)) == steps - 1

    def test_clean_run_raises_no_alerts(self, run):
        _, monitor = run
        assert monitor.alerts == []

    def test_energy_drift_is_nonnegative_on_clean_run(self, run):
        """The physics grounding: beyond the exact adiabatic factor a
        healthy run only heats, so every residual is >= 0 (tiny
        negative round-off would be caught by the tolerance)."""
        _, monitor = run
        drift = monitor.series(ENERGY_DRIFT).values
        assert drift and all(v > -1e-9 for v in drift)

    def test_mass_and_momentum_drift_tiny(self, run):
        _, monitor = run
        assert max(monitor.series(MASS_DRIFT).values) == 0.0
        assert max(monitor.series(MOMENTUM_DRIFT).values) < 1e-9


class TestHealthPolicy:
    def test_default_policy_catches_injected_leak(self):
        """Synthetic end-to-end: feeding the policy's monitor a drift
        series with a leak fires the EWMA detector at FATAL."""
        monitor = HealthPolicy().build()
        for step, clean in enumerate(CLEAN_DRIFT):
            monitor.observe(ENERGY_DRIFT, step, clean - (0.12 if step >= 4 else 0))
        assert monitor.fatal_alerts
        assert monitor.fatal_alerts[0].detector == "ewma-drift"
        assert monitor.fatal_alerts[0].step == 4

    def test_energy_floor_is_instant(self):
        monitor = HealthPolicy(energy_floor=0.5).build()
        monitor.observe(ENERGY_DRIFT, 0, -0.7)
        assert monitor.fatal_alerts  # no warmup on the hard floor

    def test_escalation_severity_configurable(self):
        monitor = HealthPolicy(escalation=Severity.WARN).build()
        for step in range(6):
            monitor.observe(ENERGY_DRIFT, step, -0.2 * (step + 1))
        assert monitor.alerts and not monitor.fatal_alerts
        monitor.escalate()  # does not raise

    def test_step_spike_watch_optional(self):
        on = HealthPolicy(step_spike_z=4.0).build()
        off = HealthPolicy(step_spike_z=None).build()
        base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]
        for monitor in (on, off):
            for step, value in enumerate(base):
                monitor.observe(STEP_SECONDS, step, value)
            monitor.observe(STEP_SECONDS, len(base), 30.0)
        assert on.alerts and on.alerts[0].severity is Severity.WARN
        assert off.alerts == []
