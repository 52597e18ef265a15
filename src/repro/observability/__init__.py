"""Unified observability: tracing, metrics, health, and the event log.

The measurement layer the paper's methodology implies (Section 3.4.4's
validated timers), built from recorders and their consumers:

- :mod:`repro.observability.tracing` — nested spans and instant events
  on per-rank tracks, with a plain-text flame summary;
- :mod:`repro.observability.metrics` — counters, gauges, and
  fixed-bucket histograms with JSON snapshot/delta;
- :mod:`repro.observability.health` — ring-buffered physics health
  series with anomaly detectors whose
  :class:`~repro.observability.health.Severity`-ranked alerts escalate
  through the resilience runner; ``default_monitor`` is the one judge
  of a step's physics, carried by every driver;
- :mod:`repro.observability.export` — the JSONL event log, the one
  record a run writes, and its Chrome-trace conversion;
- :mod:`repro.observability.dashboard` — the live terminal dashboard
  (``python -m repro dashboard events.jsonl`` / ``simulate --live``).

The package times the run; it never imports the analysis side.  The
modelled device time of a kernel, priced on a virtual GPU, is
:mod:`repro.kernels.profiler`'s.

Record a run with ``python -m repro trace`` (it writes
``events.jsonl``), convert it with ``python -m repro perfetto
events.jsonl > trace.json`` and open that at https://ui.perfetto.dev.
Importing the package loads nothing; import the submodule you use.
"""
