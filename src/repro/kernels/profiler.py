"""Per-launch kernel profiling with cost-model annotations.

The modelled side of the paper's per-kernel breakdowns (Figures 9-11):
nothing here times the run.  :class:`KernelProfiler` subscribes to a
:class:`~repro.machine.executor.DeviceExecutor`'s ledger while a
:class:`~repro.kernels.adiabatic.TracePricer` replays a recorded
workload, and turns every priced kernel submission into

- a span on a *simulated-device timeline* (one trace track per
  attached device, timestamped in simulated seconds), annotated with
  the cost model's breakdown: occupancy and what limited it, the stall
  factor, the compute/memory split, the roofline position (arithmetic
  intensity and fraction of the attainable ceiling), and achieved vs
  peak TFLOP/s;
- per-(device, kernel) aggregates rolled up into a profile table
  (:meth:`KernelProfiler.rows` / :func:`format_profile_table`), the
  reproduction's ``rocprof``-style report;
- device-side metrics (launches, simulated seconds, atomics issued,
  global bytes) in a :class:`~repro.observability.metrics.MetricsRegistry`.

:func:`profile_trace` is the one-call entry point: replay a recorded
:class:`~repro.hacc.timestep.WorkloadTrace` on one virtual device with
a profiler attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.adiabatic import TracePricer
from repro.machine.cost_model import InstructionProfile
from repro.machine.device import DeviceSpec
from repro.machine.executor import DeviceExecutor, ExecutionRecord
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder
from repro.proglang.model import ProgrammingModel

#: device timelines start here so they never collide with rank tracks
DEVICE_TRACK_BASE = 100


@dataclass
class _Aggregate:
    """Running totals for one (device, kernel) pair."""

    device: DeviceSpec
    kernel: str
    calls: int = 0
    seconds: float = 0.0
    compute_seconds: float = 0.0
    memory_seconds: float = 0.0
    occupancy_seconds: float = 0.0  # time-weighted occupancy
    stall_seconds: float = 0.0  # time-weighted stall factor
    flops: float = 0.0
    global_bytes: float = 0.0
    atomics: float = 0.0
    workitems: int = 0
    #: occupancy limiter of the most recent launch (stable per config)
    limited_by: str = "?"


@dataclass(frozen=True)
class ProfileRow:
    """One line of the per-kernel, per-device profile table."""

    device: str
    kernel: str
    calls: int
    seconds: float
    occupancy: float
    limited_by: str
    stall_factor: float
    bound: str
    intensity: float  # flops per global byte
    achieved_tflops: float
    peak_fraction: float  # achieved / roofline-attainable
    atomics: float


class KernelProfiler:
    """Turns executor submissions into annotated spans and aggregates.

    One profiler may attach to several executors (the per-device
    comparison of the paper's study); each device gets its own trace
    track and its own rows in the profile table.
    """

    def __init__(
        self,
        tracer: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self._aggregates: dict[tuple[str, str], _Aggregate] = {}
        self._cursors: dict[int, float] = {}
        self._tracks: dict[str, int] = {}

    # ------------------------------------------------------------------
    def attach(self, executor: DeviceExecutor) -> DeviceExecutor:
        """Subscribe to an executor's ledger; returns the executor."""
        device = executor.device
        if device.name not in self._tracks:
            pid = DEVICE_TRACK_BASE + len(self._tracks)
            self._tracks[device.name] = pid
            if self.tracer is not None:
                self.tracer.name_track(pid, f"device {device.system} ({device.name})")
        cursor_key = id(executor)
        self._cursors.setdefault(cursor_key, 0.0)

        def observer(record: ExecutionRecord, profile: InstructionProfile) -> None:
            self._on_record(device, cursor_key, record, profile)

        executor.add_observer(observer)
        return executor

    # ------------------------------------------------------------------
    def _on_record(
        self,
        device: DeviceSpec,
        cursor_key: int,
        record: ExecutionRecord,
        profile: InstructionProfile,
    ) -> None:
        cost = record.cost
        launch = record.launch
        n = launch.n_workitems
        flops = cost.flops_total
        bytes_total = profile.global_bytes * n
        atomics = (profile.atomic_adds + profile.atomic_minmax) * n
        intensity = flops / bytes_total if bytes_total > 0 else 0.0
        # roofline-attainable throughput at this intensity
        attainable = min(
            device.peak_flops, intensity * device.hbm_bandwidth_gbs * 1e9
        )
        achieved = flops / cost.seconds if cost.seconds > 0 else 0.0
        peak_fraction = achieved / attainable if attainable > 0 else 0.0

        agg = self._aggregates.setdefault(
            (device.name, record.kernel_name),
            _Aggregate(device=device, kernel=record.kernel_name),
        )
        agg.calls += 1
        agg.seconds += cost.seconds
        agg.compute_seconds += cost.compute_seconds
        agg.memory_seconds += cost.memory_seconds
        agg.occupancy_seconds += cost.occupancy.occupancy * cost.seconds
        agg.stall_seconds += cost.stall_factor * cost.seconds
        agg.flops += flops
        agg.global_bytes += bytes_total
        agg.atomics += atomics
        agg.workitems += n
        agg.limited_by = cost.occupancy.limited_by

        if self.metrics is not None:
            self.metrics.counter("device.kernel.launches").inc()
            self.metrics.counter("device.kernel.seconds").inc(cost.seconds)
            self.metrics.counter("device.atomics.issued").inc(atomics)
            self.metrics.counter("device.global_bytes").inc(bytes_total)

        if self.tracer is not None:
            begin = self._cursors[cursor_key]
            self._cursors[cursor_key] = begin + cost.seconds
            self.tracer.add_span(
                record.kernel_name,
                begin=begin,
                end=begin + cost.seconds,
                category="kernel-sim",
                pid=self._tracks[device.name],
                tid=0,
                path=f"{device.system}/{record.kernel_name}",
                args={
                    "n_workitems": n,
                    "occupancy": round(cost.occupancy.occupancy, 4),
                    "limited_by": cost.occupancy.limited_by,
                    "stall_factor": round(cost.stall_factor, 4),
                    "bound": cost.bound,
                    "compute_us": cost.compute_seconds * 1e6,
                    "memory_us": cost.memory_seconds * 1e6,
                    "intensity_flops_per_byte": round(intensity, 3),
                    "achieved_tflops": round(achieved / 1e12, 4),
                    "peak_fraction": round(peak_fraction, 4),
                    "cycles": {k: round(v, 2) for k, v in cost.cycles.items()},
                },
            )

    # ------------------------------------------------------------------
    def rows(self) -> list[ProfileRow]:
        """The profile table, hottest kernels first within a device."""
        rows = []
        for agg in self._aggregates.values():
            device = agg.device
            seconds = agg.seconds
            intensity = agg.flops / agg.global_bytes if agg.global_bytes > 0 else 0.0
            attainable = min(
                device.peak_flops, intensity * device.hbm_bandwidth_gbs * 1e9
            )
            achieved = agg.flops / seconds if seconds > 0 else 0.0
            rows.append(
                ProfileRow(
                    device=device.system,
                    kernel=agg.kernel,
                    calls=agg.calls,
                    seconds=seconds,
                    occupancy=agg.occupancy_seconds / seconds if seconds else 0.0,
                    limited_by=agg.limited_by,
                    stall_factor=agg.stall_seconds / seconds if seconds else 0.0,
                    bound="memory"
                    if agg.memory_seconds > agg.compute_seconds
                    else "compute",
                    intensity=intensity,
                    achieved_tflops=achieved / 1e12,
                    peak_fraction=achieved / attainable if attainable > 0 else 0.0,
                    atomics=agg.atomics,
                )
            )
        rows.sort(key=lambda r: (r.device, -r.seconds))
        return rows


def format_profile_table(rows: list[ProfileRow]) -> str:
    """Fixed-width text rendering of the profile table."""
    if not rows:
        return "profile: no kernel launches recorded"
    header = (
        f"{'device':10s} {'kernel':10s} {'calls':>6s} {'time_us':>10s} "
        f"{'occ':>5s} {'limit':>9s} {'stall':>6s} {'bound':>7s} "
        f"{'F/B':>7s} {'TF/s':>7s} {'%roof':>6s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.device:10s} {r.kernel:10s} {r.calls:6d} {r.seconds * 1e6:10.1f} "
            f"{r.occupancy:5.2f} {r.limited_by:>9s} {r.stall_factor:6.2f} "
            f"{r.bound:>7s} {r.intensity:7.2f} {r.achieved_tflops:7.3f} "
            f"{100.0 * r.peak_fraction:6.1f}"
        )
    return "\n".join(lines)


def profile_trace(
    trace,
    device: DeviceSpec,
    model: str = "sycl",
    variants="select",
    *,
    tracer: TraceRecorder | None = None,
    metrics: MetricsRegistry | None = None,
    profiler: KernelProfiler | None = None,
    fast_math: bool | None = None,
) -> KernelProfiler:
    """Replay a workload trace on one device with a profiler attached.

    Returns the profiler (pass one in to accumulate across devices).
    Raises :class:`~repro.proglang.model.CompileError` when the variant
    cannot target the device, exactly as the pricing path does.
    """
    if profiler is None:
        profiler = KernelProfiler(tracer=tracer, metrics=metrics)
    pricer = TracePricer(
        device, ProgrammingModel(model), variants, fast_math=fast_math
    )
    pricer.price(trace, profiler=profiler)
    return profiler
