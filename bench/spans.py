"""In-memory spans recorded from outside the program, and their arithmetic.

The traced pass wraps the layers' public callables (see ``layers.py``)
so that each call opens a span: name, start, end, the span that caused
it, and one id per step / run / round.  Nothing is written anywhere
until the benchmark ends; the per-layer metrics are derived from the
span list afterwards as self times and counts.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable, Sequence


class Span:
    """One call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "trace_id", "attrs")

    def __init__(self, name: str, start: float, parent: "Span | None", trace_id: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        #: values read off the call's arguments/result (pair counts, bytes, ...)
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Collects spans from every thread of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: spans in opening order (list.append is atomic, so rank and
        #: worker threads share the list without a lock)
        self.spans: list[Span] = []
        #: ``repro.xp`` op calls as (op, start, end, enclosing span);
        #: kept out of the span tree so that a kernel's self time still
        #: contains the array ops it issued
        self.ops: list[tuple[str, float, float, Span | None]] = []
        #: id given to root spans: the harness sets it per step/run/round
        self.default_trace_id: Any = None
        self._local = threading.local()

    def current(self) -> Span | None:
        return getattr(self._local, "top", None)

    def open(self, name: str) -> Span:
        parent = self.current()
        trace_id = parent.trace_id if parent is not None else self.default_trace_id
        span = Span(name, self.clock(), parent, trace_id)
        self.spans.append(span)
        self._local.top = span
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.top = span.parent

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Callable[[tuple, dict], dict[str, Any]] | None = None,
        after: Callable[[tuple, dict, Any], dict[str, Any]] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.  ``before(args, kwargs)``
        and ``after(args, kwargs, result)`` read counts off the call into
        the span's ``attrs``; a call that raises keeps only the former."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            if before is not None:
                span.attrs.update(before(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result

        return wrapper


class Patches:
    """Replaces attributes and puts every one of them back.

    Class and static methods are unwrapped and re-wrapped, so a patched
    ``classmethod`` still receives its class.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __len__(self) -> int:
        return len(self._saved)


# -- arithmetic -----------------------------------------------------------
def children_by_parent(spans: Iterable[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(id(span.parent), []).append(span)
    return out


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the part of [start, end] the intervals cover (union)."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    kids = children.get(id(span), ())
    return span.duration - covered(
        span.start, span.end, ((k.start, k.end) for k in kids)
    )


def descendants(span: Span, children: dict[int, list[Span]]) -> list[Span]:
    out: list[Span] = []
    stack = list(children.get(id(span), ()))
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children.get(id(node), ()))
    return out


def enclosing(span: Span | None, name: str) -> Span | None:
    """The nearest span called ``name`` at or above ``span``."""
    while span is not None and span.name != name:
        span = span.parent
    return span


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: tail percentiles the rule below chooses among, highest first
TAIL_PERCENTILES = (99, 95, 90, 80)


def highest_supported_percentile(n: int) -> int:
    """The highest tail percentile with at least ten samples beyond it
    (the median when even p80 has fewer)."""
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50
