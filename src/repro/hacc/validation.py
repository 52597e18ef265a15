"""Run validation: the verdict on a finished simulation.

CRK-HACC ships with consistency checks a production run is gated on.
Here every physics invariant lives once, in the health monitor's table
(:func:`~repro.observability.health.default_monitor`), which judges
every step of every driver in flight.  :func:`validate_run` turns that
judgement into a report on a finished (or in-flight)
:class:`~repro.hacc.timestep.AdiabaticDriver`:

- the FATAL alerts the driver's monitor raised in flight;
- the state invariants (momentum, mass, containment, gas
  thermodynamics, CRK volumes) judged once more on the current state,
  so corruption after the last step is still caught;
- the *timer pattern*: the recorded trace has the paper's per-step
  kernel-call structure.  That audits the recorded workload, not a
  step's physics, so it runs here only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hacc.timestep import GRAVITY_KERNEL, AdiabaticDriver
from repro.observability.health import Severity, default_monitor, state_invariants


@dataclass(frozen=True)
class Violation:
    """One failed invariant: its series (or the trace audit) and why."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


@dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    checks_run: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"validation: {status} ({len(self.checks_run)} checks)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _timer_pattern(driver: AdiabaticDriver):
    """Deviations of the recorded trace from the per-step kernel calls."""
    by = driver.trace.by_kernel()
    steps = len(driver.diagnostics)
    if steps == 0:
        return
    for timer in ("upGeo", "upCor", "upBarEx"):
        if len(by.get(timer, [])) != steps:
            yield f"timer {timer} fired {len(by.get(timer, []))}x for {steps} steps"
    for timer in ("upBarAcF", "upBarDuF"):
        if len(by.get(timer, [])) < steps:
            yield f"timer {timer} fired fewer times than steps"
    if len(by.get(GRAVITY_KERNEL, [])) != 2 * steps:
        yield (
            f"gravity kernel fired {len(by.get(GRAVITY_KERNEL, []))}x; "
            f"KDK expects {2 * steps}"
        )


def validate_run(driver: AdiabaticDriver) -> ValidationReport:
    """Judge a driver: in-flight FATAL alerts, its current state, its trace."""
    monitor = driver.health
    report = ValidationReport()
    report.violations.extend(
        Violation(a.series, a.describe()) for a in monitor.fatal_alerts
    )
    p = driver.particles
    reference = monitor.mass_reference or float(p.mass.sum())
    judge = default_monitor()
    for name, value in state_invariants(p, reference).items():
        report.checks_run.append(name)
        report.violations.extend(
            Violation(name, a.message)
            for a in judge.observe(name, driver.step_index, value)
            if a.severity is Severity.FATAL
        )
    report.checks_run.append("timer_pattern")
    report.violations.extend(
        Violation("timer_pattern", m) for m in _timer_pattern(driver)
    )
    return report
