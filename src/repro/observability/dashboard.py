"""Live terminal dashboard over the telemetry event log.

Renders the observability state — step rate, conservation-drift
sparklines, health alerts, per-kernel occupancy/roofline rows, and
resilience events — as a plain-text frame sized for a terminal.  Two
entry points share the renderer:

- ``repro dashboard <events.jsonl>`` replays a recorded
  :func:`~repro.observability.export.write_event_log` file and prints
  the final frame (the post-mortem view);
- ``repro simulate --live`` drives :class:`LiveDashboard` from the
  driver's ``on_step`` callback, redrawing in place on a TTY (ANSI
  cursor-home) and printing periodic frames otherwise, so piping to a
  log file stays readable;
- ``repro dashboard --follow`` tails a *growing* event log (e.g. the
  one ``repro serve --events-out`` appends to) via
  :func:`follow_events`, folding records into a :class:`LiveDashboard`
  as they land and stopping at the terminal ``metrics`` snapshot the
  writer emits on shutdown.

Everything here is stdlib-only and side-effect free except the actual
printing; :func:`render` on a :class:`DashboardState` returns the frame
as a string, which is what the tests assert on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, TextIO

from repro.observability.export import read_events

#: eight-level block characters, lowest to highest
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: health series shown as sparklines, in display order (name, label)
DASHBOARD_SERIES = (
    ("sim.health.energy_drift", "energy drift"),
    ("sim.health.momentum_drift", "momentum drift"),
    ("sim.health.mass_drift", "mass drift"),
    ("sim.health.step_seconds", "step seconds"),
    ("sim.health.subcycles", "subcycles"),
)


def sparkline(values: Iterable[float], width: int = 32) -> str:
    """Render a series as unicode block characters.

    The last ``width`` values are scaled to the min/max of the shown
    window; a flat series renders as a run of mid-level blocks and
    non-finite samples as ``!``.
    """
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    finite = [v for v in vals if v == v and abs(v) != float("inf")]
    if not finite:
        return "!" * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in vals:
        if v != v or abs(v) == float("inf"):
            out.append("!")
        elif span <= 0:
            out.append(SPARK_CHARS[3])
        else:
            level = int((v - lo) / span * (len(SPARK_CHARS) - 1))
            out.append(SPARK_CHARS[level])
    return "".join(out)


@dataclass
class DashboardState:
    """Everything one frame renders, accumulated from events."""

    meta: dict[str, Any] = field(default_factory=dict)
    #: series name -> list of (step, value)
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    alerts: list[dict[str, Any]] = field(default_factory=list)
    #: resilience / health instants, in arrival order
    events: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: wall seconds consumed so far (from step spans or live clock)
    elapsed: float = 0.0
    steps: int = 0
    #: names fed by explicit ``series`` records; trace ``counter``
    #: samples of the same name are the monitor's mirror of the same
    #: points and are skipped to avoid double-counting
    _series_names: set[str] = field(default_factory=set)

    # -- ingestion -----------------------------------------------------
    def add_point(self, name: str, step: int, value: float) -> None:
        self.series.setdefault(name, []).append((int(step), float(value)))
        self.steps = max(self.steps, int(step) + 1)

    def apply(self, event: dict[str, Any]) -> None:
        """Fold one event-log record into the state."""
        kind = event.get("kind")
        if kind == "header":
            self.meta = dict(event.get("meta", {}))
        elif kind == "series":
            self._series_names.add(event["name"])
            self.add_point(event["name"], event["step"], event["value"])
        elif kind == "alert":
            self.alerts.append(event)
        elif kind == "instant":
            self.events.append(event)
        elif kind == "counter":
            # counter samples carry a timestamp, not a step; index them
            # by arrival order so they still sparkline — unless the
            # name already arrived as explicit series records (the
            # monitor mirrors its series onto trace counter tracks)
            if event["name"] not in self._series_names:
                points = self.series.setdefault(event["name"], [])
                points.append((len(points), float(event["value"])))
        elif kind == "span":
            if event.get("category") == "step":
                # step spans repeat per rank and per recovery attempt;
                # they only back-fill the step count when no health
                # series gives the true (per-run) step index
                self.elapsed += float(event.get("duration", 0.0))
                spans = self.series.setdefault("_step_spans", [])
                spans.append((len(spans), float(event.get("duration", 0.0))))
                if not self._series_names:
                    self.steps = max(self.steps, len(spans))
        elif kind == "metrics":
            self.metrics = event.get("snapshot", {})

    def values(self, name: str) -> list[float]:
        return [v for _, v in self.series.get(name, [])]

    @property
    def step_rate(self) -> float:
        """Completed steps per wall second (0 when unknown)."""
        wall = self.values("sim.health.step_seconds")
        total = sum(wall)
        if total > 0:
            return len(wall) / total
        if self.elapsed > 0:
            return len(self.series.get("_step_spans", ())) / self.elapsed
        return 0.0


def load_events(path: str | Path) -> DashboardState:
    """Build a dashboard state from a recorded JSONL event log."""
    state = DashboardState()
    for event in read_events(path):
        state.apply(event)
    return state


def follow_events(
    path: str | Path,
    *,
    poll: float = 0.2,
    duration: float | None = None,
    stop_on_metrics: bool = True,
) -> Iterable[dict[str, Any]]:
    """Yield records from a *growing* JSONL event log as they land.

    Waits for the file to appear, then tails it: complete lines parse
    and yield immediately, a partial line (the writer mid-flush) is
    buffered until its newline arrives.  The stream ends at the
    terminal ``metrics`` snapshot every finished log carries
    (``stop_on_metrics``) or after ``duration`` wall seconds — without
    a limit, a live ``--follow`` runs until the writer shuts down.
    """
    import json
    import time

    path = Path(path)
    deadline = time.monotonic() + duration if duration is not None else None
    handle: TextIO | None = None
    buffer = ""

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    try:
        while True:
            if handle is None:
                if path.exists():
                    handle = path.open("r")
                    continue
                if expired():
                    return
                time.sleep(poll)
                continue
            chunk = handle.readline()
            if not chunk:
                if expired():
                    return
                time.sleep(poll)
                continue
            buffer += chunk
            if not buffer.endswith("\n"):
                continue  # partial line; the writer will finish it
            line, buffer = buffer.strip(), ""
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write; skip rather than crash the tail
            yield event
            if stop_on_metrics and event.get("kind") == "metrics":
                return
    finally:
        if handle is not None:
            handle.close()


def follow_dashboard(
    path: str | Path,
    *,
    stream: TextIO | None = None,
    poll: float = 0.2,
    duration: float | None = None,
    width: int = 80,
) -> DashboardState:
    """Tail ``path`` into a live frame; returns the final state."""
    live = LiveDashboard(stream=stream, width=width)
    for event in follow_events(path, poll=poll, duration=duration):
        live.update([event])
    live.finish()
    return live.state


# ----------------------------------------------------------------------
# rendering


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def render(state: DashboardState, width: int = 80) -> str:
    """One dashboard frame as a string."""
    bar = "─" * width
    lines = [bar]
    title = state.meta.get("title", "repro telemetry")
    rate = state.step_rate
    rate_text = f"{rate:.2f} steps/s" if rate > 0 else "rate n/a"
    alert_count = len(state.alerts)
    fatal = sum(1 for a in state.alerts if a.get("severity") == "fatal")
    lines.append(
        f" {title} · step {state.steps} · {rate_text} · "
        f"{alert_count} alert(s) ({fatal} fatal)"
    )
    lines.append(bar)

    spark_width = max(16, width - 40)
    shown_any = False
    for name, label in DASHBOARD_SERIES:
        vals = state.values(name)
        if not vals:
            continue
        shown_any = True
        lines.append(
            f" {label:>16s} {sparkline(vals, spark_width)}"
            f"  last={_format_value(vals[-1])}"
        )
    if not shown_any:
        lines.append(" (no health series recorded)")

    if state.alerts:
        lines.append(bar)
        lines.append(" alerts")
        for alert in state.alerts[-6:]:
            lines.append(
                f"  [{alert.get('severity', '?').upper():5s}] step "
                f"{alert.get('step', '?')} {alert.get('series', '?')}: "
                f"{alert.get('message', '')}"[: width - 1]
            )

    resilience = [
        e
        for e in state.events
        if e.get("category") in ("resilience", "health", "fault", "service")
    ]
    if resilience:
        lines.append(bar)
        lines.append(" events")
        for event in resilience[-6:]:
            args = event.get("args", {})
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(args.items()) if k != "message"
            )
            lines.append(
                f"  {event.get('name', '?')} [{event.get('category')}] {detail}"[
                    : width - 1
                ]
            )

    lines.append(bar)
    return "\n".join(lines)


class LiveDashboard:
    """In-place redrawing frame for ``simulate --live``.

    On a TTY each :meth:`update` repaints the frame with ANSI
    cursor-home + clear-to-end; on a pipe it prints a frame every
    ``plain_every`` updates so logs stay bounded and readable.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        width: int = 80,
        plain_every: int = 5,
    ):
        self.stream = stream if stream is not None else sys.stdout
        self.width = width
        self.plain_every = max(1, plain_every)
        self.state = DashboardState()
        self._updates = 0
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._painted = False

    def update(self, events: Iterable[dict[str, Any]] = ()) -> None:
        """Fold new events in and repaint."""
        for event in events:
            self.state.apply(event)
        self._updates += 1
        frame = render(self.state, self.width)
        if self._is_tty:
            if self._painted:
                self.stream.write("\x1b[H\x1b[J")
            else:
                self.stream.write("\x1b[2J\x1b[H")
                self._painted = True
            self.stream.write(frame + "\n")
        elif self._updates % self.plain_every == 0 or self._updates == 1:
            self.stream.write(frame + "\n")
        self.stream.flush()

    def finish(self) -> None:
        """Print the final frame (always, even off-cadence on a pipe)."""
        frame = render(self.state, self.width)
        if self._is_tty and self._painted:
            self.stream.write("\x1b[H\x1b[J")
        self.stream.write(frame + "\n")
        self.stream.flush()
