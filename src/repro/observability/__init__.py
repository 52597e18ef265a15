"""Unified observability: tracing, metrics, and kernel profiling.

The measurement layer the paper's methodology implies (Section 3.4.4's
validated timers, the per-kernel breakdowns of Figures 9-11), built as
three cooperating pieces:

- :mod:`repro.observability.tracing` — nested spans and instant events
  on per-rank tracks, with a plain-text flame summary;
- :mod:`repro.observability.metrics` — counters, gauges, and
  fixed-bucket histograms with JSON snapshot/delta;
- :mod:`repro.observability.profiler` — per-launch kernel spans
  annotated with the cost model's breakdown, rolled up into a
  per-device, per-kernel profile table.

PR 7 adds the *consumption* layer on top of the recorders:

- :mod:`repro.observability.health` — ring-buffered physics health
  series with anomaly detectors whose
  :class:`~repro.observability.health.Severity`-ranked alerts escalate
  through the resilience runner; ``default_monitor`` is the one judge
  of a step's physics, carried by every driver;
- :mod:`repro.observability.export` — the JSONL event log, the one
  record a run writes, and its Chrome-trace conversion;
- :mod:`repro.observability.dashboard` — the live terminal dashboard
  (``python -m repro dashboard events.jsonl`` / ``simulate --live``).

Record a run with ``python -m repro trace`` (it writes
``events.jsonl``), convert it with ``python -m repro perfetto
events.jsonl > trace.json`` and open that at https://ui.perfetto.dev;
print the profile table with ``python -m repro profile <device>``.
"""

from repro.observability.dashboard import (
    DashboardState,
    LiveDashboard,
    load_events,
    render,
    sparkline,
)
from repro.observability.export import (
    chrome_trace,
    iter_events,
    read_events,
    write_event_log,
)
from repro.observability.health import (
    Alert,
    Detector,
    EWMADriftDetector,
    HealthEscalation,
    HealthMonitor,
    SeriesBuffer,
    Severity,
    ThresholdDetector,
    default_monitor,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    INTERACTIONS_BUCKETS,
    METRIC_GLOSSARY,
    MetricsRegistry,
)
from repro.observability.profiler import (
    DEVICE_TRACK_BASE,
    KernelProfiler,
    ProfileRow,
    format_profile_table,
    profile_trace,
)
from repro.observability.tracing import (
    DEFAULT_TRACK,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    TraceRecorder,
    maybe_span,
)

__all__ = [
    "Alert",
    "Counter",
    "CounterEvent",
    "DEFAULT_TRACK",
    "DEVICE_TRACK_BASE",
    "DashboardState",
    "Detector",
    "EWMADriftDetector",
    "Gauge",
    "HealthEscalation",
    "HealthMonitor",
    "Histogram",
    "INTERACTIONS_BUCKETS",
    "InstantEvent",
    "KernelProfiler",
    "LiveDashboard",
    "METRIC_GLOSSARY",
    "MetricsRegistry",
    "ProfileRow",
    "SeriesBuffer",
    "Severity",
    "SpanEvent",
    "ThresholdDetector",
    "TraceRecorder",
    "chrome_trace",
    "default_monitor",
    "format_profile_table",
    "iter_events",
    "load_events",
    "maybe_span",
    "profile_trace",
    "read_events",
    "render",
    "sparkline",
    "write_event_log",
]
