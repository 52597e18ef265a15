"""Tests for CFL-driven hydro subcycling."""

import numpy as np
import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig


@pytest.fixture(scope="module")
def subcycled_driver():
    driver = AdiabaticDriver(
        SimulationConfig(
            n_per_side=6,
            pm_mesh=8,
            n_steps=2,
            cfl_number=0.005,  # deliberately strict to force subcycles
            max_subcycles=4,
        )
    )
    driver.run()
    return driver


class TestCFLCriterion:
    def test_subcycle_count_bounds(self):
        driver = AdiabaticDriver(
            SimulationConfig(n_per_side=6, pm_mesh=8, max_subcycles=8)
        )
        assert driver.cfl_subcycles(0.0, 1.0) == 1
        assert (
            driver.cfl_subcycles(1e12, 1.0)
            == driver.config.max_subcycles
        )

    def test_stricter_cfl_more_subcycles(self):
        loose = AdiabaticDriver(
            SimulationConfig(
                n_per_side=6, pm_mesh=8, max_subcycles=8, cfl_number=0.5
            )
        )
        strict = AdiabaticDriver(
            SimulationConfig(
                n_per_side=6, pm_mesh=8, max_subcycles=8, cfl_number=0.005
            )
        )
        signal, drift = 100.0, 0.01
        assert strict.cfl_subcycles(signal, drift) >= loose.cfl_subcycles(
            signal, drift
        )


class TestSubcycledRun:
    def test_more_adiabatic_kernel_calls(self, subcycled_driver):
        # "lead to many more calls to the adiabatic kernels" (Sec. 3.1)
        by = subcycled_driver.trace.by_kernel()
        n_steps = subcycled_driver.config.n_steps
        assert len(by["upBarAcF"]) > n_steps  # > one F call per step
        assert len(by["upGeo"]) == n_steps  # geometry stays per-step
        assert len(by["upGravSR"]) == 2 * n_steps  # gravity on outer step

    def test_physics_stays_sane(self, subcycled_driver):
        p = subcycled_driver.particles
        from repro.hacc.particles import Species

        gas = p.species_mask(Species.BARYON)
        assert np.all(np.isfinite(p.velocities))
        assert np.all(p.u[gas] >= 0)
        assert np.all((p.positions >= 0) & (p.positions < p.box))

    def test_momentum_still_conserved(self, subcycled_driver):
        mom = subcycled_driver.diagnostics[-1].total_momentum
        p = subcycled_driver.particles
        scale = float(np.abs(p.mass[:, None] * p.velocities).sum())
        assert np.all(np.abs(mom) < 1e-6 * scale)

    def test_default_config_unchanged(self, reference_trace):
        # the calibration workload (max_subcycles = 1, the default) keeps
        # the paper's one-F-call-per-step pattern
        by = reference_trace.by_kernel()
        assert len(by["upBarAcF"]) == 5
