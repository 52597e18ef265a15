"""Tests for the kernel profiler and the executor's incremental ledger."""

import pytest

from repro.machine.cost_model import InstructionProfile, KernelLaunch
from repro.machine.executor import DeviceExecutor
from repro.machine.registry import AURORA, FRONTIER
from repro.kernels.profiler import (
    DEVICE_TRACK_BASE,
    KernelProfiler,
    format_profile_table,
    profile_trace,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder

pytestmark = pytest.mark.observability


def submit(executor, name="k", fma=100.0, n=1 << 16, subgroup=64):
    profile = InstructionProfile(
        fma=fma, global_bytes=64.0, atomic_adds=1.0, registers_needed=32
    )
    launch = KernelLaunch(n_workitems=n, subgroup_size=subgroup)
    return executor.submit(name, profile, launch)


class TestExecutorLedger:
    def test_aggregates_update_incrementally(self):
        executor = DeviceExecutor(FRONTIER)
        submit(executor, "a")
        assert executor.calls_by_kernel() == {"a": 1}
        submit(executor, "a")
        submit(executor, "b", fma=200.0)
        assert executor.calls_by_kernel() == {"a": 2, "b": 1}
        by = executor.seconds_by_kernel()
        assert by["a"] == pytest.approx(
            sum(r.seconds for r in executor.records if r.kernel_name == "a")
        )
        assert executor.total_seconds() == pytest.approx(
            sum(r.seconds for r in executor.records)
        )

    def test_observer_sees_every_submission(self):
        executor = DeviceExecutor(FRONTIER)
        seen = []
        executor.add_observer(lambda record, profile: seen.append(record.kernel_name))
        submit(executor, "a")
        submit(executor, "b")
        assert seen == ["a", "b"]


class TestKernelProfiler:
    def test_aggregates_match_executor_ledger(self):
        profiler = KernelProfiler()
        executor = profiler.attach(DeviceExecutor(FRONTIER))
        submit(executor, "upGeo")
        submit(executor, "upGeo")
        submit(executor, "upCor", fma=200.0)
        rows = {r.kernel: r for r in profiler.rows()}
        assert rows["upGeo"].calls == 2
        assert rows["upGeo"].seconds == pytest.approx(
            executor.seconds_by_kernel()["upGeo"]
        )
        assert rows["upGeo"].device == FRONTIER.system

    def test_rows_carry_cost_model_annotations(self):
        profiler = KernelProfiler()
        executor = profiler.attach(DeviceExecutor(FRONTIER))
        submit(executor, "upGeo")
        (row,) = profiler.rows()
        record = executor.records[0]
        assert 0.0 < row.occupancy <= 1.0
        assert row.occupancy == pytest.approx(record.cost.occupancy.occupancy)
        assert row.limited_by == record.cost.occupancy.limited_by
        assert row.stall_factor >= 1.0
        assert row.bound in ("compute", "memory")
        assert row.intensity > 0.0
        assert row.achieved_tflops > 0.0
        # the synthetic profile is not roofline-consistent, so only
        # positivity holds here; the reference trace is bounded below
        assert row.peak_fraction > 0.0

    def test_device_track_spans_in_simulated_seconds(self):
        tracer = TraceRecorder()
        profiler = KernelProfiler(tracer=tracer)
        executor = profiler.attach(DeviceExecutor(FRONTIER))
        submit(executor, "upGeo")
        submit(executor, "upCor")
        spans = tracer.spans
        assert [s.name for s in spans] == ["upGeo", "upCor"]
        assert all(s.pid == DEVICE_TRACK_BASE for s in spans)
        assert all(s.category == "kernel-sim" for s in spans)
        # back-to-back on the simulated timeline, starting at zero
        assert spans[0].start == 0.0
        assert spans[1].start == pytest.approx(spans[0].end)
        assert spans[0].args["limited_by"]
        assert "peak_fraction" in spans[0].args

    def test_two_devices_get_distinct_tracks(self):
        tracer = TraceRecorder()
        profiler = KernelProfiler(tracer=tracer)
        ex_a = profiler.attach(DeviceExecutor(FRONTIER))
        ex_b = profiler.attach(DeviceExecutor(AURORA))
        submit(ex_a, "upGeo")
        submit(ex_b, "upGeo", subgroup=16)  # Aurora PVC has no SG-64
        pids = {s.pid for s in tracer.spans}
        assert pids == {DEVICE_TRACK_BASE, DEVICE_TRACK_BASE + 1}
        rows = profiler.rows()
        assert {r.device for r in rows} == {FRONTIER.system, AURORA.system}

    def test_metrics_counters_updated(self):
        metrics = MetricsRegistry()
        profiler = KernelProfiler(metrics=metrics)
        executor = profiler.attach(DeviceExecutor(FRONTIER))
        submit(executor, "upGeo")
        submit(executor, "upCor")
        snap = metrics.snapshot()["counters"]
        assert snap["device.kernel.launches"] == 2.0
        assert snap["device.kernel.seconds"] == pytest.approx(
            executor.total_seconds()
        )


class TestProfileTrace:
    def test_profile_of_reference_trace_covers_hot_timers(self, reference_trace):
        from repro.kernels.specs import HOTSPOT_TIMERS

        profiler = profile_trace(reference_trace, FRONTIER)
        kernels = {r.kernel for r in profiler.rows()}
        assert set(HOTSPOT_TIMERS) <= kernels
        # real kernels stay under the roofline ceiling
        assert all(0.0 < r.peak_fraction <= 1.0 for r in profiler.rows())

    def test_table_renders_one_line_per_row(self, reference_trace):
        profiler = profile_trace(reference_trace, FRONTIER)
        table = format_profile_table(profiler.rows())
        lines = table.splitlines()
        assert len(lines) == 2 + len(profiler.rows())
        assert "%roof" in lines[0]

    def test_empty_table(self):
        assert "no kernel launches" in format_profile_table([])
