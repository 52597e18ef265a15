"""Tests for the finished-run verdict, ``validate_run``."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.hacc.validation import validate_run
from repro.observability.health import (
    CONTAINMENT_BREACHES,
    ENERGY_DRIFT,
    MASS_DRIFT,
    MOMENTUM_DRIFT,
    THERMO_VIOLATIONS,
    VOLUME_RATIO,
)
from tests.observability.oracles import HEALTH_SERIES

#: every state invariant's series, in the order validate_run judges them
STATE_SERIES = (
    MOMENTUM_DRIFT,
    MASS_DRIFT,
    CONTAINMENT_BREACHES,
    THERMO_VIOLATIONS,
    VOLUME_RATIO,
)


class TestHealthyRun:
    def test_reference_run_validates(self, reference_driver):
        report = validate_run(reference_driver)
        assert report.ok, report.summary()

    def test_all_checks_ran(self, reference_driver):
        report = validate_run(reference_driver)
        assert report.checks_run == [*STATE_SERIES, "timer_pattern"]
        assert set(STATE_SERIES) <= set(HEALTH_SERIES)

    def test_summary_renders(self, reference_driver):
        assert "validation: OK" in validate_run(reference_driver).summary()


class TestCorruptionDetection:
    """Each corruption of a finished run's state or trace must trip
    exactly its own invariant."""

    @pytest.fixture
    def driver(self):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        d = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=1))
        d.run()
        return d

    def _violated(self, driver):
        return {v.check for v in validate_run(driver).violations}

    def test_clean_baseline(self, driver):
        assert self._violated(driver) == set()

    def test_momentum_corruption(self, driver):
        driver.particles.arrays["vx"][:] += 1e6
        assert self._violated(driver) == {MOMENTUM_DRIFT}

    def test_mass_corruption(self, driver):
        # a negative mass also moves the total momentum; that is the
        # mass invariant's finding, not a second one
        driver.particles.arrays["mass"][0] = -1.0
        assert self._violated(driver) == {MASS_DRIFT}

    def test_nan_mass_corruption(self, driver):
        driver.particles.arrays["mass"][0] = np.nan
        report = validate_run(driver)
        assert not report.ok
        assert "sim.health.mass_drift" in report.summary()

    def test_containment_corruption(self, driver):
        driver.particles.arrays["x"][0] = 2 * driver.particles.box
        assert self._violated(driver) == {CONTAINMENT_BREACHES}

    def test_negative_energy(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        idx = np.nonzero(gas)[0][0]
        driver.particles.arrays["u"][idx] = -1.0
        assert self._violated(driver) == {THERMO_VIOLATIONS}

    def test_eos_inconsistency(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["pressure"][gas] *= 2.0
        assert self._violated(driver) == {THERMO_VIOLATIONS}

    def test_volume_corruption(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["volume"][gas] *= 10.0
        assert self._violated(driver) == {VOLUME_RATIO}

    def test_trace_corruption(self, driver):
        driver.trace.invocations = [
            inv for inv in driver.trace.invocations if inv.name != "upCor"
        ]
        assert self._violated(driver) == {"timer_pattern"}

    def test_in_flight_alert_is_a_violation(self):
        """A leak the monitor judged in flight fails the finished run,
        though no state invariant is broken at the end."""
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        leaky = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=2))
        leaky.advance()
        leaky.particles.u[:] *= 0.3
        leaky.advance()
        assert self._violated(leaky) == {ENERGY_DRIFT}


class TestExactViolationNames:
    """Each corruption trips *exactly* its own invariant — the names
    are the monitor's series, so they must be precise, not just
    present."""

    @pytest.fixture
    def driver(self):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        d = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=1))
        d.run()
        return d

    def _violated(self, driver):
        return {v.check for v in validate_run(driver).violations}

    def test_mass_corruption_reports_only_mass(self, driver):
        driver.particles.arrays["mass"][0] = np.nan
        assert self._violated(driver) == {MASS_DRIFT}

    def test_position_corruption_reports_only_containment(self, driver):
        driver.particles.arrays["x"][0] = 2 * driver.particles.box
        assert self._violated(driver) == {CONTAINMENT_BREACHES}

    def test_internal_energy_corruption_reports_only_thermodynamics(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        idx = np.nonzero(gas)[0][0]
        driver.particles.arrays["u"][idx] = -1.0
        assert self._violated(driver) == {THERMO_VIOLATIONS}

    def test_trace_corruption_reports_only_timer_pattern(self, driver):
        driver.trace.invocations = [
            inv for inv in driver.trace.invocations if inv.name != "upGeo"
        ]
        assert self._violated(driver) == {"timer_pattern"}

    def test_velocity_corruption_reports_only_momentum(self, driver):
        driver.particles.arrays["vx"][:] += 1e6
        assert self._violated(driver) == {MOMENTUM_DRIFT}

    def test_volume_corruption_reports_only_volumes(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["volume"][gas] *= 100.0
        assert self._violated(driver) == {VOLUME_RATIO}


@pytest.mark.faults
def test_state_corruption_between_steps_escalates(monkeypatch):
    """The runner escalates a state corruption between two steps as a
    HealthEscalation on the broken invariant, and the retry from the
    pre-corruption checkpoint finishes clean."""
    from repro.hacc.particles import Species
    from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
    from repro.resilience import run_simulation

    advance = AdiabaticDriver.advance
    fired = []

    def corrupting_advance(self):
        if self.step_index == 2 and not fired:
            fired.append(True)
            dark = np.nonzero(~self.particles.species_mask(Species.BARYON))[0][0]
            self.particles.arrays["mass"][dark] *= -1.0
        return advance(self)

    monkeypatch.setattr(AdiabaticDriver, "advance", corrupting_advance)
    with tempfile.TemporaryDirectory() as ckpts:
        result = run_simulation(
            SimulationConfig(n_per_side=6, n_steps=4),
            world_size=1,
            checkpoint_dir=ckpts,
        )
    assert result.ok
    first = result.attempts[0]
    assert first.outcome == "failed"
    assert first.failure.startswith("HealthEscalation")
    assert MASS_DRIFT in first.failure and "at step 2" in first.failure


@pytest.mark.parametrize(
    "module",
    [
        "repro.hacc.validation",
        "repro.observability.health",
        "repro.resilience",
        "repro.hacc",
    ],
)
def test_imports_cleanly_when_first(module):
    """No import cycle between the driver, the health monitor that
    judges it and the finished-run verdict, whichever loads first."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
