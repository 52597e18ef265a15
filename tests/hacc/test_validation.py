"""Tests for the run validator."""

import numpy as np
import pytest

from repro.hacc.validation import RunValidator, validate_run


class TestHealthyRun:
    def test_reference_run_validates(self, reference_driver):
        report = validate_run(reference_driver)
        assert report.ok, report.summary()

    def test_all_checks_ran(self, reference_driver):
        report = validate_run(reference_driver)
        assert set(report.checks_run) == {
            "momentum",
            "mass",
            "containment",
            "thermodynamics",
            "volumes",
            "timer_pattern",
            "conservation",
        }

    def test_raise_on_failure_noop_when_ok(self, reference_driver):
        validate_run(reference_driver).raise_on_failure()

    def test_summary_renders(self, reference_driver):
        assert "validation: OK" in validate_run(reference_driver).summary()


class TestCorruptionDetection:
    """Each corruption must trip exactly the right check."""

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
        assert "momentum" in self._violated(driver)

    def test_mass_corruption(self, driver):
        driver.particles.arrays["mass"][0] = -1.0
        assert "mass" in self._violated(driver)

    def test_containment_corruption(self, driver):
        driver.particles.arrays["x"][0] = 2 * driver.particles.box
        assert "containment" in self._violated(driver)

    def test_negative_energy(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        idx = np.nonzero(gas)[0][0]
        driver.particles.arrays["u"][idx] = -1.0
        assert "thermodynamics" in self._violated(driver)

    def test_eos_inconsistency(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["pressure"][gas] *= 2.0
        assert "thermodynamics" in self._violated(driver)

    def test_volume_corruption(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["volume"][gas] *= 10.0
        assert "volumes" in self._violated(driver)

    def test_trace_corruption(self, driver):
        driver.trace.invocations = [
            inv for inv in driver.trace.invocations if inv.name != "upCor"
        ]
        assert "timer_pattern" in self._violated(driver)

    def test_raise_on_failure_raises(self, driver):
        driver.particles.arrays["mass"][0] = np.nan
        with pytest.raises(AssertionError, match="mass"):
            validate_run(driver).raise_on_failure()


class TestExactViolationNames:
    """Each corruption trips *exactly* its own check — the resilience
    step gate's severity policy keys on ``Violation.check``, so the
    names must be precise, not just present."""

    @pytest.fixture
    def driver(self):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        d = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=1))
        d.run()
        return d

    def _violated(self, driver):
        return {v.check for v in validate_run(driver).violations}

    def test_mass_corruption_reports_only_mass(self, driver):
        # NaN (not a sign flip): a changed mass would also move the
        # total momentum and trip that check too
        driver.particles.arrays["mass"][0] = np.nan
        assert self._violated(driver) == {"mass"}

    def test_position_corruption_reports_only_containment(self, driver):
        driver.particles.arrays["x"][0] = 2 * driver.particles.box
        assert self._violated(driver) == {"containment"}

    def test_internal_energy_corruption_reports_only_thermodynamics(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        idx = np.nonzero(gas)[0][0]
        driver.particles.arrays["u"][idx] = -1.0
        assert self._violated(driver) == {"thermodynamics"}

    def test_trace_corruption_reports_only_timer_pattern(self, driver):
        driver.trace.invocations = [
            inv for inv in driver.trace.invocations if inv.name != "upGeo"
        ]
        assert self._violated(driver) == {"timer_pattern"}

    def test_velocity_corruption_reports_only_momentum(self, driver):
        driver.particles.arrays["vx"][:] += 1e6
        assert self._violated(driver) == {"momentum"}

    def test_volume_corruption_reports_only_volumes(self, driver):
        from repro.hacc.particles import Species

        gas = driver.particles.species_mask(Species.BARYON)
        driver.particles.arrays["volume"][gas] *= 100.0
        assert self._violated(driver) == {"volumes"}
