"""Health alerts escalating through the resilience rollback path.

The acceptance scenario of the telemetry pipeline: an injected slow
energy leak is detected by the EWMA drift monitor and escalated into
the runner's checkpoint/rollback machinery *before* the run ends —
many steps before the ``RunValidator``'s coarse ``conservation`` band
would hard-fail the finished run.
"""

from __future__ import annotations

import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.validation import RunValidator
from repro.observability import MetricsRegistry, TraceRecorder
from repro.observability.health import (
    ENERGY_DRIFT,
    HealthEscalation,
    Severity,
    default_monitor,
)
from repro.resilience import FaultPlan, run_simulation
from repro.resilience.runner import SimulationAborted


def small_config(n_steps: int = 8) -> SimulationConfig:
    return SimulationConfig(n_per_side=6, n_steps=n_steps)


LEAK = "leak:step=3,rate=0.12,count=3"


class TestLeakEscalationRoundTrip:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("ckpts")
        return run_simulation(
            small_config(),
            world_size=2,
            timeout=30.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse(LEAK),
            health=True,
            metrics=MetricsRegistry(),
            tracer=TraceRecorder(),
        )

    def test_run_recovers_and_validates(self, result):
        assert result.ok
        assert result.recovered
        assert len(result.attempts) == 2

    def test_first_attempt_failed_on_health_escalation(self, result):
        first = result.attempts[0]
        assert first.outcome == "failed"
        assert "HealthEscalation" in first.failure

    def test_alert_detected_the_leak_at_its_first_step(self, result):
        assert len(result.health_alerts) >= 1
        alert = result.health_alerts[0]
        assert alert.series == ENERGY_DRIFT
        assert alert.severity is Severity.FATAL
        assert alert.detector == "ewma-drift"
        assert alert.step == 3  # the leak's first step, not its last

    def test_restart_rolled_back_before_the_leak(self, result):
        second = result.attempts[1]
        assert second.outcome == "completed"
        assert second.restarted_from_step == 3  # pre-leak checkpoint

    def test_detection_precedes_validator_hard_fail(self, result):
        """The monitor catches one 12% leaked step; the validator's
        hard band (50% cumulative) would need several — the alert step
        must come first, and the *recovered* run must not trip the
        band at all."""
        alert_step = result.health_alerts[0].step
        leaked_fraction_at_alert = 1 - (1 - 0.12) ** (alert_step - 3 + 1)
        assert leaked_fraction_at_alert < RunValidator.CONSERVATION_BAND
        report = RunValidator(result.driver).validate()
        assert not [v for v in report.violations if v.check == "conservation"]

    def test_final_monitor_is_clean(self, result):
        """The recovered attempt's own monitor saw no leak (the fired
        fault was cancelled on restart)."""
        assert result.health_monitor is not None
        assert result.health_monitor.alerts == []
        drift = result.health_monitor.series(ENERGY_DRIFT).values
        assert drift and all(v > -1e-9 for v in drift)


class TestUnrecoverableLeak:
    def test_leak_without_checkpoints_aborts_with_history(self, tmp_path):
        """No checkpoint dir: every attempt replays from step 0, but
        the leak window has been cancelled after firing once, so the
        retry completes — unless retries are exhausted first."""
        from repro.resilience.guards import RetryPolicy

        with pytest.raises(SimulationAborted) as excinfo:
            run_simulation(
                small_config(6),
                world_size=1,
                timeout=30.0,
                retry_policy=RetryPolicy(max_retries=0),
                fault_plan=FaultPlan.parse(LEAK),
                health=True,
            )
        (attempt,) = excinfo.value.attempts
        assert "HealthEscalation" in attempt.failure


class TestValidatorConservationBackstop:
    def test_catastrophic_leak_trips_the_hard_band(self):
        """Without monitors, the end-of-run validator still refuses a
        run that leaked most of its thermal energy."""
        driver = AdiabaticDriver(small_config(4))
        driver.run()
        driver.particles.u[:] *= 1e-3
        from repro.hacc import eos

        eos.update_thermodynamics(driver.particles)
        # fake the last diagnostic reflecting the drained state
        driver.diagnostics.append(driver._diagnose(driver.diagnostics[-1].a))
        report = RunValidator(driver).validate()
        (violation,) = [v for v in report.violations if v.check == "conservation"]
        assert "leaking" in violation.message

    def test_default_severity_is_warn(self):
        """The health EWMA owns escalation; the validator's band only
        warns by default at the step gate."""
        from repro.resilience.guards import STEP_SEVERITY

        assert STEP_SEVERITY["conservation"] is Severity.WARN


class TestDirectEscalation:
    def test_driver_level_monitor_raises(self):
        """Unit seam: a FATAL alert raises HealthEscalation out of
        monitor.escalate(), carrying the alerts."""
        monitor = default_monitor()
        for step, value in enumerate([0.001, 0.002, 0.003, -0.2, -0.25]):
            monitor.observe(ENERGY_DRIFT, step, value)
        with pytest.raises(HealthEscalation) as excinfo:
            monitor.escalate()
        assert excinfo.value.alerts[0].series == ENERGY_DRIFT
