"""Tests for the in-flight guards and the step-level validation gate."""

import numpy as np
import pytest

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.validation import RunValidator, Severity
from repro.resilience.faults import FaultInjector, FaultSpec, plan_from_specs
from repro.resilience.guards import (
    GuardPolicy,
    GuardViolation,
    KernelGuard,
    RetryPolicy,
    StepGate,
    StepValidationError,
)


def tiny_driver(n_steps: int = 1) -> AdiabaticDriver:
    return AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=n_steps))


class TestKernelGuard:
    def test_clean_outputs_pass(self):
        guard = KernelGuard()
        guard.screen("upGeo", 0, {"volume": np.ones(8)})
        assert guard.screened_kernels == 1

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

    def test_screening_can_be_disabled(self):
        guard = KernelGuard(GuardPolicy(screen_kernels=False))
        guard.screen("upGeo", 0, {"volume": np.array([np.nan])})

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


class TestStepGate:
    def test_healthy_step_passes(self):
        driver = tiny_driver()
        driver.run()
        StepGate(driver).check(0)

    def test_fatal_violation_raises(self):
        driver = tiny_driver()
        driver.run()
        driver.particles.arrays["mass"][0] = -1.0
        with pytest.raises(StepValidationError, match="mass"):
            StepGate(driver).check(0)

    def test_warn_severity_accumulates(self):
        driver = tiny_driver()
        driver.run()
        # NaN trips only the mass audit (a NaN momentum drift compares
        # False against the tolerance), so severity routing is isolated
        driver.particles.arrays["mass"][0] = np.nan
        policy = GuardPolicy(severity={"mass": Severity.WARN})
        gate = StepGate(driver, policy)
        gate.check(0)
        assert [v.check for v in gate.warnings] == ["mass"]

    def test_ignore_severity_skips_check(self):
        driver = tiny_driver()
        driver.run()
        driver.particles.arrays["mass"][0] = np.nan
        policy = GuardPolicy(severity={"mass": Severity.IGNORE})
        gate = StepGate(driver, policy)
        gate.check(0)
        assert gate.warnings == []

    def test_gate_covers_all_validator_checks_by_default(self):
        assert GuardPolicy().step_checks == RunValidator.CHECK_NAMES

    def test_step_checks_subset(self):
        driver = tiny_driver()
        driver.run()
        driver.particles.arrays["mass"][0] = -1.0
        policy = GuardPolicy(step_checks=("containment",))
        StepGate(driver, policy).check(0)  # mass not audited


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.tighten_cadence

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestValidatorCheckSelection:
    def test_subset_runs_only_requested(self):
        driver = tiny_driver()
        driver.run()
        report = RunValidator(driver).validate(checks=("mass", "containment"))
        assert report.checks_run == ["mass", "containment"]

    def test_unknown_check_rejected(self):
        driver = tiny_driver()
        driver.run()
        with pytest.raises(ValueError, match="unknown validation checks"):
            RunValidator(driver).validate(checks=("entropy",))
