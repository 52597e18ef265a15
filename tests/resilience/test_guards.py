"""Tests for the in-flight kernel guards and the retry budget."""

import numpy as np
import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.validation import validate_run
from repro.observability.metrics import MetricsRegistry
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.guards import GuardViolation, KernelGuard, RetryPolicy
from tests.resilience.oracles import plan_from_specs


def tiny_driver(n_steps: int = 1) -> AdiabaticDriver:
    return AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=n_steps))


class TestKernelGuard:
    def test_clean_outputs_pass(self):
        metrics = MetricsRegistry()
        KernelGuard(metrics=metrics).screen("upGeo", 0, {"volume": np.ones(8)})
        assert metrics.counter("sim.resilience.guard_screens").value == 1
        assert metrics.counter("sim.resilience.guard_violations").value == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_output_raises_same_step(self, bad):
        guard = KernelGuard()
        arr = np.ones(16)
        arr[5] = bad
        with pytest.raises(GuardViolation) as exc:
            guard.screen("upBarAc", 3, {"dv_dt": arr})
        assert exc.value.kernel == "upBarAc"
        assert exc.value.step == 3
        assert exc.value.n_bad == 1

    @pytest.mark.faults
    def test_installed_guard_catches_injected_nan_in_flight(self):
        """A NaN injected into a hot kernel output is caught by the
        screen during the very step it appears, not post-mortem."""
        driver = tiny_driver()
        injector = FaultInjector(
            plan_from_specs(
                [FaultSpec(kind="corrupt_kernel", kernel="upBarDu", step=0)]
            )
        )
        KernelGuard().install(driver, injector=injector, rank=0)
        schedule = driver.schedule()
        with pytest.raises(GuardViolation) as exc:
            driver.step(float(schedule[0]), float(schedule[1]))
        assert exc.value.kernel == "upBarDu"
        assert exc.value.step == 0
        # the step never completed
        assert driver.step_index == 0
        assert driver.diagnostics == []

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "kernel", ["upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu"]
    )
    def test_every_hot_kernel_is_screened(self, kernel):
        driver = tiny_driver()
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="corrupt_kernel", kernel=kernel, step=0)])
        )
        KernelGuard().install(driver, injector=injector, rank=0)
        schedule = driver.schedule()
        with pytest.raises(GuardViolation) as exc:
            driver.step(float(schedule[0]), float(schedule[1]))
        assert exc.value.kernel == kernel


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestValidatorCheckSelection:
    def test_validate_runs_every_check(self):
        driver = tiny_driver()
        driver.run()
        report = validate_run(driver)
        assert report.checks_run[-1] == "timer_pattern"
        assert len(report.checks_run) == len(set(report.checks_run)) == 6
