"""Run validation: the invariants a healthy simulation must keep.

CRK-HACC ships with consistency checks a production run is gated on;
this module provides the reproduction's equivalents.  A
:class:`RunValidator` audits a completed (or in-flight)
:class:`~repro.hacc.timestep.AdiabaticDriver` and reports every
violated invariant:

- *momentum*: the pair-antisymmetric forces must conserve total
  momentum to round-off accumulation levels;
- *mass*: particle masses never change;
- *containment*: positions stay in the periodic box;
- *thermodynamics*: gas internal energy non-negative, density/pressure
  /sound speed positive and finite, EOS consistency P = (gamma-1) rho u;
- *volumes*: the CRK volumes tile the box approximately;
- *timer pattern*: the recorded trace has the paper's per-step
  kernel-call structure;
- *conservation*: cumulative thermal energy stays within a hard band
  of the exact adiabatic expectation (beyond-adiabatic *cooling* is
  unphysical — shocks and viscosity only heat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hacc import eos
from repro.hacc.particles import Species
from repro.hacc.timestep import GRAVITY_KERNEL, AdiabaticDriver
from repro.hacc.units import GAMMA_ADIABATIC


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

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

    def raise_on_failure(self) -> None:
        if not self.ok:
            details = "\n".join(str(v) for v in self.violations)
            raise AssertionError(f"simulation validation failed:\n{details}")

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"validation: {status} ({len(self.checks_run)} checks)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class RunValidator:
    """Audits a driver's state and trace."""

    #: tolerated relative momentum drift (accumulated round-off over a
    #: few steps of scatter-add reductions)
    MOMENTUM_TOLERANCE = 1e-6
    #: acceptable band for sum(V)/box^3.  Exact tiling only holds for
    #: near-uniform gas; clustering legitimately shrinks the covered
    #: fraction (voids fall outside every kernel support), so the check
    #: guards against order-of-magnitude corruption, not percent drift.
    VOLUME_BAND = (0.3, 2.0)

    #: the cumulative expansion-corrected thermal residual must stay
    #: above -CONSERVATION_BAND: losing half the thermal energy beyond
    #: the exact adiabatic factor is corruption, not hydrodynamics.
    #: This is the coarse hard backstop; the health monitors catch the
    #: same leak per-step, many steps earlier (see observability.health)
    CONSERVATION_BAND = 0.5

    #: every invariant, in audit order
    CHECK_NAMES = (
        "momentum",
        "mass",
        "containment",
        "thermodynamics",
        "volumes",
        "timer_pattern",
        "conservation",
    )

    def __init__(self, driver: AdiabaticDriver):
        self.driver = driver

    # ------------------------------------------------------------------
    def validate(self) -> ValidationReport:
        """Audit the driver against every check in :attr:`CHECK_NAMES`."""
        report = ValidationReport()
        for name in self.CHECK_NAMES:
            check = getattr(self, f"_check_{name}")
            report.checks_run.append(name)
            for violation in check():
                report.violations.append(Violation(check=name, message=violation))
        return report

    # ------------------------------------------------------------------
    def _check_momentum(self):
        p = self.driver.particles
        mom = p.total_momentum()
        scale = float(np.abs(p.mass[:, None] * p.velocities).sum())
        if scale > 0:
            drift = float(np.abs(mom).max() / scale)
            if drift > self.MOMENTUM_TOLERANCE:
                yield (
                    f"total momentum drift {drift:.2e} exceeds "
                    f"{self.MOMENTUM_TOLERANCE:.0e}"
                )

    def _check_mass(self):
        p = self.driver.particles
        if np.any(p.mass <= 0):
            yield "non-positive particle masses"
        if not np.all(np.isfinite(p.mass)):
            yield "non-finite particle masses"

    def _check_containment(self):
        p = self.driver.particles
        pos = p.positions
        if np.any(pos < 0) or np.any(pos >= p.box):
            yield "positions outside the periodic box"
        if not np.all(np.isfinite(p.velocities)):
            yield "non-finite velocities"

    def _check_thermodynamics(self):
        p = self.driver.particles
        gas = p.species_mask(Species.BARYON)
        if not gas.any():
            return
        u = p.u[gas]
        rho = p.rho[gas]
        pressure = p.pressure[gas]
        cs = p.cs[gas]
        if np.any(u < 0):
            yield "negative internal energies"
        for name, arr in (("rho", rho), ("pressure", pressure), ("cs", cs)):
            if not np.all(np.isfinite(arr)):
                yield f"non-finite {name}"
        if np.any(rho <= 0):
            yield "non-positive gas densities"
        expected_p = eos.pressure(rho, u, GAMMA_ADIABATIC)
        scale = max(float(np.abs(expected_p).max()), 1e-300)
        if np.abs(pressure - expected_p).max() > 1e-10 * scale:
            yield "pressure inconsistent with the equation of state"

    def _check_volumes(self):
        p = self.driver.particles
        gas = p.species_mask(Species.BARYON)
        if not gas.any():
            return
        volumes = p.volume[gas]
        if np.any(volumes <= 0):
            yield "non-positive CRK volumes"
            return
        total = float(volumes.sum())
        box_volume = p.box**3
        lo, hi = self.VOLUME_BAND
        ratio = total / box_volume
        if not lo <= ratio <= hi:
            yield (
                f"CRK volumes tile {ratio:.2f}x the box volume "
                f"(acceptable band [{lo}, {hi}])"
            )

    def _check_timer_pattern(self):
        by = self.driver.trace.by_kernel()
        steps = len(self.driver.diagnostics)
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

    def _check_conservation(self):
        """Cumulative thermal energy vs the exact adiabatic scaling.

        In the comoving variables kinetic energy is not conserved (it
        grows with collapse), but thermal energy can only exceed the
        pure u ~ a^-2 expansion scaling: shocks and viscosity heat.  A
        cumulative residual below -CONSERVATION_BAND means energy is
        *leaking* — an injected fault, a lossy restore, a unit bug.
        """
        diags = self.driver.diagnostics
        if len(diags) < 2:
            return
        first = diags[0]
        last = diags[-1]
        if first.thermal_energy <= 0 or first.a <= 0 or last.a <= 0:
            return
        expected = first.thermal_energy * (first.a / last.a) ** 2
        residual = last.thermal_energy / expected - 1.0
        if residual < -self.CONSERVATION_BAND:
            yield (
                f"thermal energy residual {residual:+.3f} below the "
                f"adiabatic band -{self.CONSERVATION_BAND}: energy is leaking"
            )


def validate_run(driver: AdiabaticDriver) -> ValidationReport:
    """Convenience wrapper: audit a completed driver."""
    return RunValidator(driver).validate()
