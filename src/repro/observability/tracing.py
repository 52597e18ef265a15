"""Nested-span tracing on per-rank tracks.

The paper's entire evaluation is *measurement*: per-kernel timings on
three GPUs rolled up into performance-portability efficiencies
(Figures 9-11).  Flat MPI_wtime-style bracket timers give per-name
totals but no structure — where inside a step the time went, which
rank a collective stalled on, when a fault fired relative to the
checkpoint that saved the run.  :class:`TraceRecorder` captures that
structure as nested spans and instant events on per-rank/per-thread
tracks (a bracket timer is then one span, and a recorder over another
``clock`` times simulated seconds the same way).  A run writes them
into its JSONL event log (:mod:`repro.observability.export`), which
converts to Chrome-trace JSON for ``chrome://tracing`` or
https://ui.perfetto.dev; :meth:`TraceRecorder.flame_summary` prints
them aggregated by span path.

Timeline model
--------------
Every event carries a ``pid`` (the *track* — we use one per simulated
MPI rank, so a multi-rank run renders as parallel rank timelines) and
a ``tid`` (one lane per OS thread within a track).  Rank threads
select their track with :meth:`TraceRecorder.track`; everything else
lands on the default track 0.  Timestamps are monotonic seconds from
the recorder's epoch (its construction time).

The recorder is lock-safe: all rank threads of a
:class:`~repro.hacc.mpi_sim.SimWorld` share one recorder and their
events merge into one coherent timeline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: ``pid`` of events recorded outside any explicit track (also the
#: track of simulated rank 0, whose timeline hosts the supervisor)
DEFAULT_TRACK = 0


@dataclass(frozen=True)
class SpanEvent:
    """One completed span (Chrome ``ph: "X"`` event)."""

    name: str
    category: str
    #: start, seconds from the recorder epoch (monotonic)
    start: float
    #: duration in seconds (>= 0)
    duration: float
    pid: int
    tid: int
    #: nesting depth on this thread at the time the span opened
    depth: int
    #: '/'-joined ancestor names including this span (flame path)
    path: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class InstantEvent:
    """One point-in-time event (Chrome ``ph: "i"`` event)."""

    name: str
    category: str
    ts: float
    pid: int
    tid: int
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterEvent:
    """One sample of a counter track (Chrome ``ph: "C"`` event).

    Counter tracks render as stacked area charts in Perfetto, so a
    health series (conservation drift, step wall-time, guard hit rate)
    plots *alongside* the kernel spans of the same timeline.  ``value``
    holds the sample; multi-series samples recorded under one track
    name pass extra series through ``values``.
    """

    name: str
    ts: float
    pid: int
    tid: int
    value: float
    category: str = "counter"


class _ThreadState(threading.local):
    """Per-thread track selection and open-span stack."""

    def __init__(self):
        self.pid = DEFAULT_TRACK
        self.tid: int | None = None
        self.stack: list[str] = []


class TraceRecorder:
    """Lock-safe recorder of spans and instant events.

    ``clock`` must be monotonic; the default is
    :func:`time.perf_counter`.  All public methods may be called from
    any thread.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._lock = threading.Lock()
        self._spans: list[SpanEvent] = []
        self._instants: list[InstantEvent] = []
        self._counters: list[CounterEvent] = []
        self._track_names: dict[int, str] = {}
        self._state = _ThreadState()
        self._next_tid = 0

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Seconds since the recorder epoch (monotonic)."""
        return self._clock() - self._epoch

    # -- track management ----------------------------------------------
    def _thread_tid(self) -> int:
        if self._state.tid is None:
            with self._lock:
                self._state.tid = self._next_tid
                self._next_tid += 1
        return self._state.tid

    def name_track(self, pid: int, name: str) -> None:
        """Label a track (rendered as the process name in Perfetto)."""
        with self._lock:
            self._track_names[int(pid)] = name

    @contextmanager
    def track(self, pid: int, name: str | None = None) -> Iterator[None]:
        """Route the calling thread's events onto track ``pid``.

        Rank threads of a simulated world each enter their own track,
        producing the per-rank timelines of a multi-rank trace.
        """
        if name is not None:
            self.name_track(pid, name)
        previous = self._state.pid
        self._state.pid = int(pid)
        try:
            yield
        finally:
            self._state.pid = previous

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "span", **args: Any) -> Iterator[None]:
        """Record a nested span around the ``with`` body.

        Nesting is tracked per thread: spans opened inside an open span
        record their depth and full ancestor path, which the flame
        summary and the Chrome viewer use to reconstruct the hierarchy.
        """
        state = self._state
        depth = len(state.stack)
        state.stack.append(name)
        start = self.now()
        try:
            yield
        finally:
            duration = max(0.0, self.now() - start)
            state.stack.pop()
            self.add_span(
                name,
                begin=start,
                end=start + duration,
                category=category,
                depth=depth,
                path="/".join((*state.stack, name)),
                args=args,
            )

    def add_span(
        self,
        name: str,
        *,
        begin: float,
        end: float,
        category: str = "span",
        pid: int | None = None,
        tid: int | None = None,
        depth: int = 0,
        path: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> SpanEvent:
        """Record a span from explicit timeline timestamps (seconds).

        The raw entry point for spans whose clock is *not* the
        recorder's own — e.g. the simulated-device timeline of
        :class:`~repro.kernels.profiler.KernelProfiler`.
        """
        if end < begin:
            raise ValueError(f"span {name!r} ends before it begins")
        event = SpanEvent(
            name=name,
            category=category,
            start=float(begin),
            duration=float(end - begin),
            pid=self._state.pid if pid is None else int(pid),
            tid=self._thread_tid() if tid is None else int(tid),
            depth=depth,
            path=path if path is not None else name,
            args=dict(args or {}),
        )
        with self._lock:
            self._spans.append(event)
        return event

    def instant(
        self,
        name: str,
        category: str = "event",
        *,
        ts: float | None = None,
        pid: int | None = None,
        tid: int | None = None,
        **args: Any,
    ) -> InstantEvent:
        """Record a point-in-time event (fault fired, rank died, ...)."""
        event = InstantEvent(
            name=name,
            category=category,
            ts=self.now() if ts is None else float(ts),
            pid=self._state.pid if pid is None else int(pid),
            tid=self._thread_tid() if tid is None else int(tid),
            args=dict(args),
        )
        with self._lock:
            self._instants.append(event)
        return event

    def counter(
        self,
        name: str,
        value: float,
        *,
        ts: float | None = None,
        pid: int | None = None,
        tid: int | None = None,
        category: str = "counter",
    ) -> CounterEvent:
        """Record one sample on a counter track (Perfetto ``ph: "C"``).

        Repeated samples under the same ``name`` form a time series the
        trace viewer plots as an area chart next to the span tracks —
        the health monitors use this so conservation drift renders
        alongside the kernels that produced it.
        """
        event = CounterEvent(
            name=name,
            ts=self.now() if ts is None else float(ts),
            pid=self._state.pid if pid is None else int(pid),
            tid=self._thread_tid() if tid is None else int(tid),
            value=float(value),
            category=category,
        )
        with self._lock:
            self._counters.append(event)
        return event

    # -- queries -------------------------------------------------------
    @property
    def spans(self) -> list[SpanEvent]:
        with self._lock:
            return list(self._spans)

    @property
    def instants(self) -> list[InstantEvent]:
        with self._lock:
            return list(self._instants)

    @property
    def counters(self) -> list[CounterEvent]:
        with self._lock:
            return list(self._counters)

    @property
    def track_names(self) -> dict[int, str]:
        with self._lock:
            return dict(self._track_names)

    def tracks(self) -> set[int]:
        """All pids that appear on the timeline."""
        with self._lock:
            return (
                {e.pid for e in self._spans}
                | {e.pid for e in self._instants}
                | {e.pid for e in self._counters}
            )

    # -- views ---------------------------------------------------------
    def flame_summary(self, limit: int | None = None) -> str:
        """Plain-text flame view: spans aggregated by ancestor path.

        ``self`` time is the span's total minus the time of its direct
        children, so a hot leaf stands out even under a long parent.
        """
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time: dict[str, float] = {}
        for s in self.spans:
            totals[s.path] = totals.get(s.path, 0.0) + s.duration
            calls[s.path] = calls.get(s.path, 0) + 1
            parent = s.path.rsplit("/", 1)[0] if "/" in s.path else None
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + s.duration
        rows = sorted(totals.items(), key=lambda kv: -kv[1])
        if limit is not None:
            rows = rows[:limit]
        if not rows:
            return "flame summary: no spans recorded"
        width = max(len(path) for path, _ in rows)
        lines = [
            f"{'span path':{width}s} {'calls':>6s} {'total_s':>12s} {'self_s':>12s}"
        ]
        for path, total in rows:
            self_s = max(0.0, total - child_time.get(path, 0.0))
            lines.append(
                f"{path:{width}s} {calls[path]:6d} {total:12.6f} {self_s:12.6f}"
            )
        return "\n".join(lines)


@contextmanager
def maybe_span(
    recorder: TraceRecorder | None, name: str, category: str = "span", **args: Any
) -> Iterator[None]:
    """A span when ``recorder`` is set; a no-op otherwise.

    Lets instrumented call sites stay unconditional::

        with maybe_span(self.tracer, "upGeo", category="kernel"):
            ...
    """
    if recorder is None:
        yield
    else:
        with recorder.span(name, category=category, **args):
            yield
