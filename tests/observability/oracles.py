"""What the observability tests expect of a run: the series the health
monitor records, and the spans a finished recorder holds by name."""

from __future__ import annotations

from repro.observability.health import (
    CONTAINMENT_BREACHES,
    ENERGY_DRIFT,
    GUARD_HIT_RATE,
    KINETIC_ENERGY,
    MASS_DRIFT,
    MOMENTUM_DRIFT,
    STEP_SECONDS,
    SUBCYCLES,
    THERMAL_ENERGY,
    THERMO_VIOLATIONS,
    TOTAL_ENERGY,
    VOLUME_RATIO,
)
from repro.observability.tracing import SpanEvent, TraceRecorder

#: every series :meth:`HealthMonitor.observe_step` produces
HEALTH_SERIES = (
    KINETIC_ENERGY,
    THERMAL_ENERGY,
    TOTAL_ENERGY,
    ENERGY_DRIFT,
    MOMENTUM_DRIFT,
    MASS_DRIFT,
    CONTAINMENT_BREACHES,
    THERMO_VIOLATIONS,
    VOLUME_RATIO,
    STEP_SECONDS,
    SUBCYCLES,
    GUARD_HIT_RATE,
)


def spans_named(recorder: TraceRecorder, name: str) -> list[SpanEvent]:
    return [s for s in recorder.spans if s.name == name]
