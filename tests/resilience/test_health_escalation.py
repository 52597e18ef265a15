"""Health alerts escalating through the resilience rollback path.

The acceptance scenario of the telemetry pipeline: an injected slow
energy leak is detected by the EWMA drift monitor every driver carries
and escalated into the runner's checkpoint/rollback machinery on its
first leaking step — no option turns the judge on, so a run that
leaks can never come back ``ok`` with the leaked state.
"""

from __future__ import annotations

import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.validation import validate_run
from repro.observability.health import (
    ENERGY_DRIFT,
    ENERGY_FLOOR,
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
        # no sink and no option: the judge every driver carries is enough
        return run_simulation(
            small_config(),
            world_size=2,
            checkpoint_dir=tmp_path_factory.mktemp("ckpts"),
            checkpoint_every=1,
            fault_plan=FaultPlan.parse(LEAK),
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
        """The EWMA catches one 12% leaked step, far inside the hard
        per-step floor; the recovered run's verdict holds no energy
        violation at all."""
        alert_step = result.health_alerts[0].step
        leaked_fraction_at_alert = 1 - (1 - 0.12) ** (alert_step - 3 + 1)
        assert leaked_fraction_at_alert < ENERGY_FLOOR
        report = validate_run(result.driver)
        assert report.ok
        assert not [v for v in report.violations if v.check == ENERGY_DRIFT]

    def test_recovered_diagnostics_equal_the_fault_free_run(self, result):
        reference = AdiabaticDriver(small_config())
        reference.run()
        assert [
            (d.a, d.kinetic_energy, d.thermal_energy, d.max_density_contrast)
            for d in result.driver.diagnostics
        ] == [
            (d.a, d.kinetic_energy, d.thermal_energy, d.max_density_contrast)
            for d in reference.diagnostics
        ]

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
            )
        (attempt,) = excinfo.value.attempts
        assert "HealthEscalation" in attempt.failure


class TestValidatorConservationBackstop:
    def test_catastrophic_leak_trips_the_hard_band(self):
        """Without the runner, the finished-run verdict still refuses a
        plain driver that leaked most of its thermal energy in flight:
        the drop lands inside the EWMA's warm-up, so the hard floor is
        the detector that judged it."""
        driver = AdiabaticDriver(small_config(4))
        driver.advance()
        driver.particles.u[:] *= 1e-3
        driver.run()
        (alert,) = driver.health.fatal_alerts
        assert (alert.series, alert.detector, alert.step) == (
            ENERGY_DRIFT,
            "threshold",
            1,
        )
        report = validate_run(driver)
        (violation,) = report.violations
        assert violation.check == ENERGY_DRIFT
        assert "below the floor" in violation.message


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
