"""Functional execution with simulated timing.

:class:`DeviceExecutor` is the virtual GPU's "runtime": it runs a
kernel's functional body (plain NumPy) for the physics result and asks
the cost model for the simulated device time, recording both.  It plays
the role that the CUDA/HIP/SYCL runtimes play in the paper: the
mini-app's time stepper submits kernels through it, and the paper's
timers (Section 3.4.4) read its ledger.

The executor's per-kernel times are the reproduction's equivalent of
``rocprof`` ground truth: bracket-timer spans over the executor's clock
are validated against them (the tests' ``validate_against_profiler``),
mirroring the paper's validation of CRK-HACC's internal timers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.machine.cost_model import (
    CostModel,
    InstructionProfile,
    KernelCost,
    KernelLaunch,
)
from repro.machine.device import DeviceSpec


@dataclass(frozen=True)
class ExecutionRecord:
    """One kernel execution as seen by the device runtime."""

    kernel_name: str
    launch: KernelLaunch
    cost: KernelCost

    @property
    def seconds(self) -> float:
        return self.cost.seconds


#: ledger observer: called after each submission with the fresh record
#: and the instruction profile it was priced from
ExecutionObserver = Callable[[ExecutionRecord, InstructionProfile], None]


@dataclass
class DeviceExecutor:
    """Submits kernels to one virtual device and keeps a time ledger.

    Aggregates (total seconds, per-kernel seconds/calls, per-kernel
    record lists) are maintained incrementally on every submission, so
    the ledger queries are O(kernels), not O(records) — the
    :class:`~repro.kernels.profiler.KernelProfiler` and the
    bracket timers read them on every launch.
    """

    device: DeviceSpec
    records: list[ExecutionRecord] = field(default_factory=list)

    def __post_init__(self):
        self.cost_model = CostModel(self.device)
        #: ledger observers (e.g. a KernelProfiler); see add_observer
        self.observers: list[ExecutionObserver] = []
        self._total_seconds = 0.0
        self._seconds_by_kernel: dict[str, float] = defaultdict(float)
        self._calls_by_kernel: dict[str, int] = defaultdict(int)
        for record in self.records:  # pre-seeded ledgers stay consistent
            self._ingest(record)

    def _ingest(self, record: ExecutionRecord) -> None:
        self._total_seconds += record.seconds
        self._seconds_by_kernel[record.kernel_name] += record.seconds
        self._calls_by_kernel[record.kernel_name] += 1

    def add_observer(self, observer: ExecutionObserver) -> None:
        """Subscribe to the ledger: ``observer(record, profile)`` fires
        after every submission (how the profiler sees launches)."""
        self.observers.append(observer)

    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        profile: InstructionProfile,
        launch: KernelLaunch,
        body: Callable[[], Any] | None = None,
    ) -> Any:
        """Run ``body`` (if given) and record the simulated kernel time.

        Returns whatever ``body`` returns, so call sites read like a
        kernel launch followed by a result fetch.
        """
        result = body() if body is not None else None
        cost = self.cost_model.kernel_cost(profile, launch)
        record = ExecutionRecord(kernel_name=name, launch=launch, cost=cost)
        self.records.append(record)
        self._ingest(record)
        for observer in self.observers:
            observer(record, profile)
        return result

    # ------------------------------------------------------------------
    # ledger queries ("rocprof")
    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Total simulated time across all offloaded kernels."""
        return self._total_seconds

    def seconds_by_kernel(self) -> dict[str, float]:
        """Simulated seconds aggregated by kernel name."""
        return dict(self._seconds_by_kernel)

    def calls_by_kernel(self) -> dict[str, int]:
        """Invocation counts by kernel name."""
        return dict(self._calls_by_kernel)
