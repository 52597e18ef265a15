"""Physics health monitors: time series, anomaly detectors, alerts.

The tracer and the metrics registry *record* a run (spans,
counters); this module is the layer that **consumes** them in flight.
The paper's tuning methodology is continuous measurement — a
regression or a sick run only shows up when someone is watching the
series, not inspecting a snapshot once — so the monitor watches the
simulation the way an operator would:

- :class:`SeriesBuffer` — a ring-buffered per-step time series
  (conservation drift, step wall-time, guard hit rate, ...);
- detectors — pluggable anomaly tests over a series:
  :class:`ThresholdDetector` (absolute bands) and
  :class:`EWMADriftDetector` (sustained drift of the value away from
  its exponentially weighted history — the slow-energy-leak catcher);
- :class:`Alert` — one detector firing, ranked by the same
  :class:`Severity`, so a physics anomaly escalates through the
  resilience runner's rollback machinery exactly like a NaN guard: a
  ``FATAL`` alert raises :class:`HealthEscalation` and the
  fault-tolerant runner retries from checkpoint;
- :class:`HealthMonitor` — owns the buffers and detectors, mirrors
  every observation into gauges (:class:`MetricsRegistry`), Perfetto
  counter tracks (:class:`TraceRecorder`), and alert instants, and
  derives the standard physics series from a driver's step
  diagnostics (:meth:`HealthMonitor.observe_step`);
- :func:`default_monitor` — the one judge of a step's physics: every
  invariant's series, detector, tolerance and severity, in one table.

The physics grounding of the conservation series: in the comoving
(canonical-momentum) variables the total energy is *not* a constant —
kinetic energy grows during collapse and thermal energy is cooled by
expansion as :math:`u \\propto a^{-2}`.  What *is* invariant is the
sign of the unexplained part: beyond the exact adiabatic factor the
hydro can only heat (shocks, viscosity), never cool.  The
``energy_drift`` series is therefore the per-step thermal residual

    q_t = E_th(t) / (E_th(t-1) * (a_{t-1}/a_t)^2) - 1

which a healthy run keeps ≥ 0 (small positive, growing with
structure); a leak — an injected fault, a lossy restart, a unit bug —
shows up as a sustained negative drift the EWMA detector catches on
its first leaking step.

The state invariants — momentum, mass, containment, gas
thermodynamics and the CRK volume tiling — are plain functions of the
particle state (:func:`state_invariants`), judged by threshold
detectors in the same table.  Every driver carries a monitor, so every
step of every run is judged once, here; a finished run's
:func:`~repro.hacc.validation.validate_run` reads the same table.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.hacc.particles import ParticleData
    from repro.hacc.timestep import AdiabaticDriver, StepDiagnostics

#: the standard physics-health series (all literal so the metric
#: glossary lint can see them; each has a METRIC_GLOSSARY entry)
KINETIC_ENERGY = "sim.health.kinetic_energy"
THERMAL_ENERGY = "sim.health.thermal_energy"
TOTAL_ENERGY = "sim.health.total_energy"
ENERGY_DRIFT = "sim.health.energy_drift"
MOMENTUM_DRIFT = "sim.health.momentum_drift"
MASS_DRIFT = "sim.health.mass_drift"
CONTAINMENT_BREACHES = "sim.health.containment_breaches"
THERMO_VIOLATIONS = "sim.health.thermo_violations"
VOLUME_RATIO = "sim.health.volume_ratio"
STEP_SECONDS = "sim.health.step_seconds"
SUBCYCLES = "sim.health.subcycles"
GUARD_HIT_RATE = "sim.health.guard_hit_rate"

#: EWMA tolerance on the expansion-corrected thermal residual: a leak
#: of more than this fraction per step escalates
ENERGY_TOLERANCE = 0.03
#: hard floor on the per-step residual: a drop this large lands even
#: inside the EWMA's warm-up (the first drift observations of a run or
#: of a rolled-back attempt, which only seed its mean)
ENERGY_FLOOR = 0.5
#: relative total-momentum drift ceiling: the pair-antisymmetric forces
#: conserve momentum to accumulated round-off
MOMENTUM_TOLERANCE = 1e-6
#: relative total-mass drift ceiling: masses never change
MASS_TOLERANCE = 1e-9
#: relative pressure error against P = (gamma-1) rho u, scaled by the
#: largest expected pressure
EOS_TOLERANCE = 1e-10
#: acceptable band for sum(V)/box^3.  Exact tiling only holds for
#: near-uniform gas; clustering legitimately shrinks the covered
#: fraction (voids fall outside every kernel support), so the band
#: guards against order-of-magnitude corruption, not percent drift
VOLUME_BAND = (0.3, 2.0)
#: a NaN-guard hit rate above zero warns (the guard itself raises)
GUARD_RATE_TOLERANCE = 0.0


class HealthEscalation(RuntimeError):
    """A FATAL health alert, raised into the runner's rollback path.

    The resilience runner treats this exactly like a
    :class:`~repro.resilience.guards.GuardError`: the attempt fails
    and the recovery ladder (retry-from-checkpoint / shrink) decides
    what happens next.
    """

    def __init__(self, alerts: Iterable["Alert"]):
        self.alerts = tuple(alerts)
        details = "; ".join(a.describe() for a in self.alerts)
        super().__init__(f"health monitor escalation: {details}")


class Severity(enum.Enum):
    """How an alert is treated.

    ``WARN`` records; ``FATAL`` escalates into the resilience runner's
    rollback.
    """

    WARN = "warn"
    FATAL = "fatal"


@dataclass(frozen=True)
class Alert:
    """One detector firing on one series observation."""

    series: str
    step: int
    value: float
    severity: Severity
    detector: str
    message: str

    def describe(self) -> str:
        return (
            f"[{self.severity.value.upper()}] {self.series} at step "
            f"{self.step}: {self.message}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "series": self.series,
            "step": self.step,
            "value": self.value,
            "severity": self.severity.value,
            "detector": self.detector,
            "message": self.message,
        }


class SeriesBuffer:
    """Ring-buffered ``(step, value)`` time series.

    Appends are O(1); once ``capacity`` points are held the oldest
    falls off — a week-long service run keeps a bounded window, which
    is all the detectors and the dashboard sparklines need.
    """

    def __init__(self, name: str, capacity: int = 512):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._points: deque[tuple[int, float]] = deque(maxlen=capacity)

    def append(self, step: int, value: float) -> None:
        self._points.append((int(step), float(value)))

    def __len__(self) -> int:
        return len(self._points)

    def __bool__(self) -> bool:
        return bool(self._points)

    @property
    def steps(self) -> list[int]:
        return [s for s, _ in self._points]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self._points]

    def last(self) -> tuple[int, float]:
        if not self._points:
            raise IndexError(f"series {self.name!r} is empty")
        return self._points[-1]


# ----------------------------------------------------------------------
# Detectors.  Each is stateful (attached to exactly one series) and is
# fed every observation in step order; returning a message raises an
# alert at the severity it was attached with.


class Detector:
    """Base class: one anomaly test over one series."""

    name = "detector"

    def update(self, step: int, value: float) -> str | None:
        """Feed one observation; a non-None message is an alert."""
        raise NotImplementedError


class ThresholdDetector(Detector):
    """Absolute band check: alert when the value leaves [low, high]."""

    name = "threshold"

    def __init__(self, low: float | None = None, high: float | None = None):
        if low is None and high is None:
            raise ValueError("threshold detector needs a low and/or high bound")
        self.low = low
        self.high = high

    def update(self, step: int, value: float) -> str | None:
        if value != value:  # NaN never compares; always out of band
            return "value is NaN"
        if self.low is not None and value < self.low:
            return f"value {value:.6g} below the floor {self.low:.6g}"
        if self.high is not None and value > self.high:
            return f"value {value:.6g} above the ceiling {self.high:.6g}"
        return None


class EWMADriftDetector(Detector):
    """Sustained drift away from the exponentially weighted history.

    Tracks an EWMA ``m`` of the series; each new value's residual
    ``value - m`` is compared against ``tolerance``.  A slow leak —
    every step shifted the same direction — keeps producing residuals
    of one sign that the smoothed history never absorbs, so the
    detector fires within a few steps while the absolute value is
    still far inside any hard band.  ``direction`` restricts which
    sign of residual alarms (an energy leak is ``"down"``: heating
    beyond the mean is physical, unexplained cooling is not).
    ``warmup`` observations seed the EWMA before the test arms.
    """

    name = "ewma-drift"

    def __init__(
        self,
        tolerance: float,
        alpha: float = 0.5,
        warmup: int = 2,
        direction: str = "both",
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if direction not in ("both", "up", "down"):
            raise ValueError("direction must be 'both', 'up', or 'down'")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.tolerance = tolerance
        self.alpha = alpha
        self.warmup = warmup
        self.direction = direction
        self._mean: float | None = None
        self._seen = 0

    def update(self, step: int, value: float) -> str | None:
        if value != value:
            return "value is NaN"
        self._seen += 1
        if self._mean is None:
            self._mean = value
            return None
        residual = value - self._mean
        message: str | None = None
        if self._seen > self.warmup:
            drifted = (
                residual < -self.tolerance
                if self.direction == "down"
                else residual > self.tolerance
                if self.direction == "up"
                else abs(residual) > self.tolerance
            )
            if drifted:
                message = (
                    f"value {value:.6g} drifted {residual:+.6g} from the "
                    f"EWMA {self._mean:.6g} (tolerance {self.tolerance:.6g})"
                )
        # the drifted value still updates the mean: a *step change* is
        # absorbed after a few alerts, a continuing leak keeps firing
        self._mean = self.alpha * value + (1.0 - self.alpha) * self._mean
        return message


@dataclass
class _Attachment:
    detector: Detector
    severity: Severity


class HealthMonitor:
    """Named series + attached detectors + alert log.

    Feed it directly with :meth:`observe`; a driver's own ``health``
    monitor derives the standard physics series after every step
    through :meth:`observe_step`.  Observations mirror into the
    attached sinks: gauges in ``metrics``, Perfetto counter tracks in
    ``tracer`` (so health series render alongside kernel spans), and
    ``alert`` instants for every detector firing.

    The monitor never raises on its own; the resilience runner calls
    :meth:`escalate` at its step boundary, which raises
    :class:`HealthEscalation` for FATAL alerts not yet escalated —
    the same seam the NaN guards use.
    """

    def __init__(
        self,
        *,
        tracer: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        on_alert: Callable[[Alert], None] | None = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.on_alert = on_alert
        self._series: dict[str, SeriesBuffer] = {}
        self._attachments: dict[str, list[_Attachment]] = {}
        self._alerts: list[Alert] = []
        self._escalated = 0
        # per-step deltas of shared counters (guard / cache rates)
        self._counter_marks: dict[str, float] = {}
        #: total mass at the first observed step, the mass drift's base
        self.mass_reference: float | None = None

    # -- series & detectors --------------------------------------------
    def series(self, name: str) -> SeriesBuffer:
        buf = self._series.get(name)
        if buf is None:
            buf = self._series[name] = SeriesBuffer(name)
        return buf

    def attach(
        self,
        series: str,
        detector: Detector,
        severity: Severity = Severity.WARN,
    ) -> Detector:
        """Attach a detector to a series; returns the detector."""
        self._attachments.setdefault(series, []).append(
            _Attachment(detector=detector, severity=severity)
        )
        return detector

    # -- alerts --------------------------------------------------------
    @property
    def alerts(self) -> list[Alert]:
        return list(self._alerts)

    @property
    def fatal_alerts(self) -> list[Alert]:
        return [a for a in self._alerts if a.severity is Severity.FATAL]

    def escalate(self) -> None:
        """Raise :class:`HealthEscalation` on new FATAL alerts.

        Alerts already raised once are not raised again, so the
        recovery path can keep the monitor across a rollback without
        immediately re-dying on the historical alert.
        """
        fatal = self.fatal_alerts
        fresh = fatal[self._escalated :]
        if fresh:
            self._escalated = len(fatal)
            raise HealthEscalation(fresh)

    # -- observation ---------------------------------------------------
    def observe(self, name: str, step: int, value: float) -> list[Alert]:
        """Record one sample; run the series' detectors; emit sinks."""
        value = float(value)
        self.series(name).append(step, value)
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)
        if self.tracer is not None:
            self.tracer.counter(name, value, category="health")
        new: list[Alert] = []
        for attachment in self._attachments.get(name, ()):
            message = attachment.detector.update(step, value)
            if message is None:
                continue
            alert = Alert(
                series=name,
                step=step,
                value=value,
                severity=attachment.severity,
                detector=attachment.detector.name,
                message=message,
            )
            new.append(alert)
            self._alerts.append(alert)
            if self.metrics is not None:
                self.metrics.counter("sim.health.alerts").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "alert",
                    category="health",
                    series=alert.series,
                    step=alert.step,
                    value=alert.value,
                    severity=alert.severity.value,
                    detector=alert.detector,
                    message=alert.message,
                )
            if self.on_alert is not None:
                self.on_alert(alert)
        return new

    def _counter_delta(self, name: str) -> float:
        """Per-call delta of a shared registry counter (0 if absent)."""
        if self.metrics is None:
            return 0.0
        current = self.metrics.counter(name).value
        delta = current - self._counter_marks.get(name, 0.0)
        self._counter_marks[name] = current
        return max(0.0, delta)

    def observe_step(
        self,
        driver: "AdiabaticDriver",
        diag: "StepDiagnostics",
        wall_seconds: float | None = None,
    ) -> list[Alert]:
        """Derive the standard physics series from one completed step.

        Called by the driver at the end of :meth:`AdiabaticDriver.step`
        (the driver passes its own wall-clock measurement).  The
        conservation series are exact functions of the replicated
        physics state, so replicated ranks observing their own monitors
        stay bit-for-bit agreed — which is what lets every rank raise
        the same escalation at the same step.
        """
        step = driver.step_index
        alerts: list[Alert] = []

        thermal_series = self.series(THERMAL_ENERGY)
        previous: tuple[int, float, float] | None = None
        if thermal_series:
            prev_step, prev_thermal = thermal_series.last()
            a_series = self.series("_scale_factor")
            if a_series:
                previous = (prev_step, prev_thermal, a_series.last()[1])
        self.series("_scale_factor").append(step, diag.a)

        alerts += self.observe(KINETIC_ENERGY, step, diag.kinetic_energy)
        alerts += self.observe(THERMAL_ENERGY, step, diag.thermal_energy)
        alerts += self.observe(
            TOTAL_ENERGY, step, diag.kinetic_energy + diag.thermal_energy
        )

        # expansion-corrected thermal residual: beyond the exact
        # (a_prev/a)^2 adiabatic factor the hydro can only heat, so a
        # sustained negative drift is a leak (see module docstring)
        if previous is not None and previous[1] > 0 and diag.a > 0:
            _, prev_thermal, prev_a = previous
            expected = prev_thermal * (prev_a / diag.a) ** 2
            if expected > 0:
                drift = diag.thermal_energy / expected - 1.0
                alerts += self.observe(ENERGY_DRIFT, step, drift)

        if self.mass_reference is None:
            self.mass_reference = float(driver.particles.mass.sum())
        for name, value in state_invariants(
            driver.particles, self.mass_reference
        ).items():
            alerts += self.observe(name, step, value)

        if wall_seconds is not None:
            alerts += self.observe(STEP_SECONDS, step, wall_seconds)
        alerts += self.observe(SUBCYCLES, step, getattr(driver, "last_subcycles", 1))

        if self.metrics is not None:
            screens = self._counter_delta("sim.resilience.guard_screens")
            violations = self._counter_delta("sim.resilience.guard_violations")
            if screens > 0:
                alerts += self.observe(GUARD_HIT_RATE, step, violations / screens)
        return alerts

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON view of every series and alert (dashboard feed)."""
        return {
            "series": {
                name: {"steps": buf.steps, "values": buf.values}
                for name, buf in sorted(self._series.items())
                if not name.startswith("_")
            },
            "alerts": [a.as_dict() for a in self._alerts],
        }

    def summary(self) -> str:
        fatal = len(self.fatal_alerts)
        lines = [
            f"health: {len(self._alerts)} alert(s) ({fatal} fatal) over "
            f"{len([n for n in self._series if not n.startswith('_')])} series"
        ]
        lines.extend(f"  {a.describe()}" for a in self._alerts)
        return "\n".join(lines)


def state_invariants(p: "ParticleData", mass_reference: float) -> dict[str, float]:
    """The value of every state invariant's series on ``p``; reads only.

    ``mass_reference`` is the total mass the drift is measured against.
    A NaN or non-positive mass is the mass invariant's alone: momentum
    is only measured over a valid mass set.
    """
    # imported here: repro.hacc imports this module through the driver
    from repro.hacc import eos
    from repro.hacc.particles import Species
    from repro.hacc.units import GAMMA_ADIABATIC

    mass, pos, vel = p.mass, p.positions, p.velocities
    scale = float(np.abs(mass[:, None] * vel).sum())
    momentum = 0.0
    if scale > 0 and np.all(mass > 0):
        momentum = float(np.abs(p.total_momentum()).max()) / scale
    values = {
        MOMENTUM_DRIFT: momentum,
        MASS_DRIFT: (
            abs(float(mass.sum()) - mass_reference) / mass_reference
            if mass_reference > 0
            else 0.0
        ),
        CONTAINMENT_BREACHES: float(
            np.count_nonzero(
                ~((pos >= 0) & (pos < p.box)).all(axis=1)
                | ~np.isfinite(vel).all(axis=1)
            )
        ),
    }
    gas = p.species_mask(Species.BARYON)
    if gas.any():
        u, rho, pressure = p.u[gas], p.rho[gas], p.pressure[gas]
        expected = eos.pressure(rho, u, GAMMA_ADIABATIC)
        tolerance = EOS_TOLERANCE * max(float(np.abs(expected).max()), 1e-300)
        with np.errstate(invalid="ignore"):
            broken = (
                (u < 0)
                | ~(rho > 0)
                | ~np.isfinite(rho)
                | ~np.isfinite(pressure)
                | ~np.isfinite(p.cs[gas])
                | ~(np.abs(pressure - expected) <= tolerance)
            )
        values[THERMO_VIOLATIONS] = float(np.count_nonzero(broken))
        volume = p.volume[gas]
        values[VOLUME_RATIO] = (
            float(volume.sum()) / p.box**3 if np.all(volume > 0) else 0.0
        )
    return values


def default_monitor(
    *,
    tracer: TraceRecorder | None = None,
    metrics: MetricsRegistry | None = None,
    on_alert: Callable[[Alert], None] | None = None,
) -> HealthMonitor:
    """The one judge of a step's physics, at this module's tolerances.

    Every FATAL detector watches a *deterministic* function of the
    replicated physics state, so all ranks of a lockstep world escalate
    identically; the metrics-derived guard rate only ever WARNs, and
    step wall-time is recorded but not watched.
    """
    monitor = HealthMonitor(tracer=tracer, metrics=metrics, on_alert=on_alert)
    fatal, warn = Severity.FATAL, Severity.WARN
    for series, detector, severity in (
        (ENERGY_DRIFT, EWMADriftDetector(ENERGY_TOLERANCE, direction="down"), fatal),
        (ENERGY_DRIFT, ThresholdDetector(low=-ENERGY_FLOOR), fatal),
        (MOMENTUM_DRIFT, ThresholdDetector(high=MOMENTUM_TOLERANCE), fatal),
        (MASS_DRIFT, ThresholdDetector(high=MASS_TOLERANCE), fatal),
        (CONTAINMENT_BREACHES, ThresholdDetector(high=0.0), fatal),
        (THERMO_VIOLATIONS, ThresholdDetector(high=0.0), fatal),
        (VOLUME_RATIO, ThresholdDetector(*VOLUME_BAND), fatal),
        (GUARD_HIT_RATE, ThresholdDetector(high=GUARD_RATE_TOLERANCE), warn),
    ):
        monitor.attach(series, detector, severity)
    return monitor
