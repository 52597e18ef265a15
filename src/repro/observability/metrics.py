"""Counters, gauges, and fixed-bucket histograms for the simulation.

Where :mod:`repro.observability.tracing` answers *when* something
happened, this module answers *how much*: kernel launches, pair
interactions computed, atomics issued, checkpoint bytes, retries, rank
failures.  A :class:`MetricsRegistry` is threaded through the stack
alongside the trace recorder; its :meth:`~MetricsRegistry.snapshot`
exports every instrument as plain JSON (the event log's closing
``metrics`` record) and
:meth:`~MetricsRegistry.delta` diffs two snapshots (e.g. warm-up vs
timed steps).

Canonical instrument names used by the built-in instrumentation are
listed in :data:`METRIC_GLOSSARY`; anything else is free-form.
"""

from __future__ import annotations

import threading
import warnings
from bisect import bisect_left
from typing import Any, Iterable

#: canonical metric names emitted by the instrumented layers
METRIC_GLOSSARY: dict[str, str] = {
    "sim.steps": "completed KDK steps (counter)",
    "sim.kernel.launches": "hot-kernel launches recorded by the driver (counter)",
    "sim.kernel.interactions": "pair interactions computed, work-items x per-item (counter)",
    "sim.kernel.interactions_per_item": "per-launch mean neighbour count (histogram)",
    "sim.pairs.cell_list.builds": "cell lists built, one per pair search (counter)",
    "sim.pairs.cutoff_truncated": "SPH pair contexts whose kernel support was clamped to the minimum-image bound (counter)",
    "device.kernel.launches": "kernel submissions priced on a virtual device (counter)",
    "device.kernel.seconds": "simulated device seconds across submissions (counter)",
    "device.atomics.issued": "atomic operations issued on the device, per-launch totals (counter)",
    "device.global_bytes": "global-memory traffic priced by the cost model, bytes (counter)",
    "mpi.collective.calls": "SimComm collective invocations across all ranks (counter)",
    "mpi.collective.seconds": "wall seconds rank threads spent inside collectives (counter)",
    "resilience.rank_failures": "rank deaths recorded by the world supervisor (counter)",
    "resilience.faults_injected": "fault-injector events fired (counter)",
    "resilience.retries": "attempt restarts performed by the recovery loop (counter)",
    "sim.resilience.degraded": "runs that finished degraded (shrunk world) rather than restarting (counter)",
    "sim.resilience.shrinks": "ULFM-style communicator shrinks performed by survivors (counter)",
    "sim.resilience.checkpoint_skipped": "invalid (zero-byte/torn/corrupt) checkpoint files skipped during recovery discovery (counter)",
    "sim.resilience.backoff_seconds": "wall seconds slept by the unified BackoffPolicy between retries (counter)",
    "sim.resilience.guard_screens": "hot-kernel outputs screened by the in-flight NaN/Inf guard (counter)",
    "sim.resilience.guard_violations": "non-finite kernel outputs caught by the in-flight guard (counter)",
    "sim.health.kinetic_energy": "total kinetic energy after each step (gauge)",
    "sim.health.thermal_energy": "total gas thermal energy after each step (gauge)",
    "sim.health.total_energy": "kinetic + thermal energy after each step (gauge)",
    "sim.health.energy_drift": "per-step thermal-energy residual beyond adiabatic expansion (gauge)",
    "sim.health.momentum_drift": "largest total-momentum component over the summed absolute m*v of every particle, after each step (gauge)",
    "sim.health.mass_drift": "relative total-mass drift against the monitor's first observed step (gauge)",
    "sim.health.containment_breaches": "particles outside the periodic box or with non-finite velocity, after each step (gauge)",
    "sim.health.thermo_violations": "gas particles with u < 0, bad rho/P/cs, or P off the equation of state, after each step (gauge)",
    "sim.health.volume_ratio": "summed gas CRK volumes over the box volume, after each step (gauge)",
    "sim.health.step_seconds": "wall-clock seconds of the latest completed step (gauge)",
    "sim.health.subcycles": "hydro subcycles taken by the latest step, timestep-collapse watch (gauge)",
    "sim.health.guard_hit_rate": "NaN-guard violations per screened kernel output this step (gauge)",
    "sim.health.alerts": "health-detector alerts raised across all monitors (counter)",
    "checkpoint.writes": "simulation checkpoints written (counter)",
    "checkpoint.bytes": "bytes of checkpoint data written (counter)",
    "checkpoint.write_failures": "checkpoint writes absorbed as failures (counter)",
    "svc.jobs.submitted": "jobs admitted by the service, including cached and coalesced (counter)",
    "svc.jobs.completed": "jobs finished with their products, cache hits included (counter)",
    "svc.jobs.failed": "jobs that exhausted execution and failed their future (counter)",
    "svc.jobs.rejected": "submissions refused by the per-tenant quota (counter)",
    "svc.jobs.coalesced": "duplicate in-flight submissions attached to a leader's execution (counter)",
    "svc.jobs.preempted": "running jobs checkpointed and requeued for a more urgent grant (counter)",
    "svc.jobs.resumed": "preempted jobs restored from their checkpoint on a later grant (counter)",
    "svc.queue.depth": "jobs waiting in the scheduler's pending heap (gauge)",
    "svc.workers.busy": "worker tasks currently executing a grant (gauge)",
    "svc.cache.hits": "content-cache lookups served from a resident entry (counter)",
    "svc.cache.misses": "content-cache lookups that fell through to computation (counter)",
    "svc.cache.evictions": "entries LRU-evicted to stay under the cache byte budget (counter)",
    "svc.cache.bytes": "resident bytes in the content-addressed cache (gauge)",
}

#: default bucket edges for the neighbour-count histogram
INTERACTIONS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value that may move both ways (thread-safe)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram (thread-safe).

    ``edges`` are the inclusive upper bounds of the finite buckets; one
    overflow bucket catches everything above the last edge, so a
    histogram with N edges has N+1 counts.  An observation ``v`` lands
    in the first bucket whose edge satisfies ``v <= edge``.
    """

    kind = "histogram"

    def __init__(self, name: str, edges: Iterable[float]):
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        if not self.edges:
            raise ValueError(f"histogram {self.name!r} needs at least one edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(
                f"histogram {self.name!r} edges must be strictly increasing"
            )
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.edges) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        # first bucket whose upper edge satisfies value <= edge; values
        # above the last edge land in the overflow bucket
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def export(self) -> dict[str, Any]:
        with self._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
            }


class MetricsRegistry:
    """Named instruments with JSON snapshot/delta export.

    Instruments are created on first use (``registry.counter("x")``)
    and an existing name is returned as-is; re-requesting a name as a
    different instrument kind raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind: str, factory):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, not a {kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(
        self, name: str, edges: Iterable[float] = INTERACTIONS_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, "histogram", lambda: Histogram(name, edges))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current state, grouped by kind."""
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in sorted(instruments.items()):
            out[inst.kind + "s"][name] = inst.export()
        return out

    def delta(self, previous: dict[str, Any]) -> dict[str, Any]:
        """Difference between now and an earlier :meth:`snapshot`.

        Counters and histogram counts subtract; gauges report their
        current value (a gauge has no meaningful difference).  Metrics
        created since ``previous`` diff against zero.
        """
        current = self.snapshot()
        prev_counters = previous.get("counters", {})
        out: dict[str, Any] = {
            "counters": {
                name: value - prev_counters.get(name, 0.0)
                for name, value in current["counters"].items()
            },
            "gauges": dict(current["gauges"]),
            "histograms": {},
        }
        prev_hists = previous.get("histograms", {})
        zero = {"counts": None, "count": 0, "sum": 0.0}
        for name, hist in current["histograms"].items():
            prev = prev_hists.get(name, zero)
            if prev is not zero and prev.get("edges") != hist["edges"]:
                # the histogram was re-created with different bucket
                # edges (e.g. across a restore) — a bucketwise zip
                # would silently truncate or misalign, so the earlier
                # snapshot is incomparable and the diff starts at zero
                warnings.warn(
                    f"histogram {name!r} bucket edges changed since the "
                    f"previous snapshot ({prev.get('edges')} -> "
                    f"{hist['edges']}); diffing against zero",
                    RuntimeWarning,
                    stacklevel=2,
                )
                prev = zero
            prev_counts = prev["counts"] or [0] * len(hist["counts"])
            out["histograms"][name] = {
                "edges": hist["edges"],
                "counts": [c - p for c, p in zip(hist["counts"], prev_counts)],
                "count": hist["count"] - prev["count"],
                "sum": hist["sum"] - prev["sum"],
            }
        return out
