"""The JSONL event log: the one record a run writes.

One JSON object per line, each tagged with a ``kind``.  The log holds
everything a run observed — trace spans, instants and counter samples,
track names, health series and alerts, and the final metrics
snapshot — so every other view is a function of it:

- ``repro dashboard`` replays the file (or tails it with ``--follow``
  while ``repro serve`` is still appending);
- :func:`chrome_trace` converts a finished log into the Chrome-trace
  JSON that ``chrome://tracing`` and https://ui.perfetto.dev load
  (``python -m repro perfetto events.jsonl > trace.json``).

One writer, :class:`EventLogWriter`, serves both uses: a finished run
dumped once (:func:`write_event_log`) and a service streaming records
as they happen.  Every timestamp is seconds on the producing
:class:`~repro.observability.tracing.TraceRecorder`'s clock.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.observability.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.health import HealthMonitor
    from repro.observability.tracing import (
        CounterEvent,
        InstantEvent,
        SpanEvent,
        TraceRecorder,
    )

#: JSONL event-log schema version (bump on incompatible change)
EVENT_LOG_VERSION = 2


def header_record(meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The record every log starts with."""
    header: dict[str, Any] = {"kind": "header", "version": EVENT_LOG_VERSION}
    if meta:
        header["meta"] = dict(meta)
    return header


def span_record(span: "SpanEvent") -> dict[str, Any]:
    return {
        "kind": "span",
        "name": span.name,
        "category": span.category,
        "start": span.start,
        "duration": span.duration,
        "pid": span.pid,
        "tid": span.tid,
        "depth": span.depth,
        "path": span.path,
        "args": dict(span.args),
    }


def instant_record(inst: "InstantEvent") -> dict[str, Any]:
    return {
        "kind": "instant",
        "name": inst.name,
        "category": inst.category,
        "ts": inst.ts,
        "pid": inst.pid,
        "tid": inst.tid,
        "args": dict(inst.args),
    }


def counter_record(counter: "CounterEvent") -> dict[str, Any]:
    return {
        "kind": "counter",
        "name": counter.name,
        "category": counter.category,
        "ts": counter.ts,
        "pid": counter.pid,
        "tid": counter.tid,
        "value": counter.value,
    }


def iter_events(
    *,
    tracer: "TraceRecorder | None" = None,
    metrics: MetricsRegistry | None = None,
    monitor: "HealthMonitor | None" = None,
    alerts: Iterable[Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield the JSONL event-log records for the given sources.

    Record kinds: ``header`` (always first), ``series`` (one point of a
    health series), ``alert``, ``track`` (a track's name), ``span``
    (trace spans, step/kernel timing), ``instant`` (trace instants,
    e.g. resilience events), ``counter`` (trace counter samples), and
    ``metrics`` (the full registry snapshot, always last when a
    registry is given).

    ``alerts`` overrides the monitor's own alert log — a recovered run
    hands the alerts accumulated across *all* attempts while the
    monitor only holds the final (clean) attempt's series.
    """
    yield header_record(meta)
    if monitor is not None:
        snap = monitor.snapshot()
        for name, series in snap["series"].items():
            for step, value in zip(series["steps"], series["values"]):
                yield {"kind": "series", "name": name, "step": step, "value": value}
        if alerts is None:
            alerts = snap["alerts"]
    for alert in alerts or ():
        record = alert.as_dict() if hasattr(alert, "as_dict") else dict(alert)
        yield {"kind": "alert", **record}
    if tracer is not None:
        for pid, name in sorted(tracer.track_names.items()):
            yield {"kind": "track", "pid": pid, "name": name}
        yield from map(span_record, tracer.spans)
        yield from map(instant_record, tracer.instants)
        yield from map(counter_record, tracer.counters)
    if metrics is not None:
        yield {"kind": "metrics", "snapshot": metrics.snapshot()}


class EventLogWriter:
    """Append-only JSONL writer that flushes every line.

    A follower tailing the file (``repro dashboard --follow``) sees
    each record as soon as :meth:`write` returns.  Safe to call from
    any thread; writes after :meth:`close` are dropped.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        self._lock = threading.Lock()

    def write(self, record: dict[str, Any]) -> None:
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


def write_event_log(
    path: str | Path,
    *,
    tracer: "TraceRecorder | None" = None,
    metrics: MetricsRegistry | None = None,
    monitor: "HealthMonitor | None" = None,
    alerts: Iterable[Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write the JSONL event log of a finished run; returns the path."""
    writer = EventLogWriter(path)
    try:
        for event in iter_events(
            tracer=tracer,
            metrics=metrics,
            monitor=monitor,
            alerts=alerts,
            meta=meta,
        ):
            writer.write(event)
    finally:
        writer.close()
    return writer.path


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL event log back as a list of records."""
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSONL event: {exc}") from exc
        if not isinstance(event, dict) or "kind" not in event:
            raise ValueError(f"{path}:{lineno}: event record needs a 'kind' field")
        events.append(event)
    return events


def chrome_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The ``chrome://tracing`` / Perfetto JSON object of an event log.

    Tracks become ``process_name`` metadata, spans complete (``X``)
    events, instants thread-scoped ``i`` events and counter samples
    ``C`` events, with timestamps in the microseconds Chrome expects.
    Records of other kinds have no timeline form and are skipped.
    """
    records = list(records)

    def of_kind(kind: str) -> list[dict[str, Any]]:
        return [r for r in records if r["kind"] == kind]

    tracks = {r["pid"]: r["name"] for r in of_kind("track")}
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": name}}
        for pid, name in sorted(tracks.items())
    ]
    for s in sorted(of_kind("span"), key=lambda s: (s["pid"], s["tid"], s["start"])):
        events.append(
            {
                "name": s["name"],
                "cat": s["category"],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": s["duration"] * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {**s["args"], "depth": s["depth"], "path": s["path"]},
            }
        )
    for i in sorted(of_kind("instant"), key=lambda i: (i["pid"], i["tid"], i["ts"])):
        events.append(
            {
                "name": i["name"],
                "cat": i["category"],
                "ph": "i",
                "ts": i["ts"] * 1e6,
                "pid": i["pid"],
                "tid": i["tid"],
                "s": "t",
                "args": dict(i["args"]),
            }
        )
    for c in sorted(of_kind("counter"), key=lambda c: (c["pid"], c["name"], c["ts"])):
        events.append(
            {
                "name": c["name"],
                "cat": c["category"],
                "ph": "C",
                "ts": c["ts"] * 1e6,
                "pid": c["pid"],
                "tid": c["tid"],
                "args": {"value": c["value"]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
