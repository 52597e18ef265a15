"""Tests for the standalone-kernel exploration (Section 7.2)."""

import pytest

from repro.experiments.standalone import (
    checkpoint_workload,
    explore_kernel,
    format_study,
)
from repro.hacc.particles import Species
from repro.machine.registry import AURORA, POLARIS
from repro.resilience import SimulationCheckpoint
from tests.kernels.oracles import HOTSPOT_KERNELS
from tests.observability.oracles import spans_named


@pytest.fixture(scope="module")
def checkpoint(reference_driver):
    return SimulationCheckpoint.capture(reference_driver)


class TestCheckpointWorkload:
    def test_single_invocation(self, checkpoint, reference_driver):
        trace = checkpoint_workload(checkpoint, "upBarAc")
        assert len(trace.invocations) == 1
        inv = trace.invocations[0]
        assert inv.n_workitems == reference_driver.particles.count(Species.BARYON)
        assert inv.interactions_per_item > 10


class TestExploration:
    def test_ranking_sorted(self, checkpoint):
        study = explore_kernel(checkpoint, "acceleration", AURORA)
        times = [c.seconds for c in study.ranking]
        assert times == sorted(times)
        assert study.upper_bound_speedup > 1.0

    def test_aurora_space_includes_visa_and_grf(self, checkpoint):
        study = explore_kernel(checkpoint, "geometry", AURORA)
        names = {c.variant.name for c in study.ranking}
        assert "visa" in names
        grf_modes = {c.grf_mode.value for c in study.ranking}
        assert grf_modes == {"small", "large"}

    def test_polaris_space_excludes_visa_and_sg16(self, checkpoint):
        study = explore_kernel(checkpoint, "geometry", POLARIS)
        assert all(c.variant.name != "visa" for c in study.ranking)
        assert all(c.subgroup_size == 32 for c in study.ranking)

    def test_aurora_upper_bound_headroom_is_large(self, checkpoint):
        # the exploration's reason to exist: the config space spans
        # multiples of performance on Aurora
        study = explore_kernel(checkpoint, "acceleration", AURORA)
        assert study.upper_bound_speedup > 2.5

    def test_all_hotspots(self, checkpoint):
        assert set(HOTSPOT_KERNELS) == {
            "geometry",
            "corrections",
            "extras",
            "acceleration",
            "energy",
        }
        for kernel in HOTSPOT_KERNELS:
            assert explore_kernel(checkpoint, kernel, AURORA).kernel == kernel

    def test_unknown_kernel_rejected(self, checkpoint):
        with pytest.raises(KeyError):
            explore_kernel(checkpoint, "agn_feedback", AURORA)

    def test_format_renders(self, checkpoint):
        text = format_study(explore_kernel(checkpoint, "energy", AURORA))
        assert "energy on Aurora" in text
        assert "us" in text


class TestTimerIntegration:
    """End-to-end: bracket-timer spans over a priced replay agree with
    the executor ledger (the rocprof validation, Section 3.4.4)."""

    def test_bracketed_replay_validates(self, reference_trace):
        from repro.kernels.adiabatic import TracePricer
        from repro.observability.tracing import TraceRecorder
        from tests.kernels.oracles import validate_against_profiler
        from repro.proglang.model import ProgrammingModel

        pricer = TracePricer(AURORA, ProgrammingModel.SYCL, "memory_object")
        holder = {}

        def make_tracer(executor):
            holder["executor"] = executor
            holder["recorder"] = TraceRecorder(clock=executor.total_seconds)
            return holder["recorder"]

        report = pricer.price(reference_trace, tracer=make_tracer)
        recorder = holder["recorder"]
        diffs = validate_against_profiler(recorder, holder["executor"])
        assert diffs
        assert all(d <= 1e-9 for d in diffs.values())
        assert {s.category for s in recorder.spans} == {"timer"}
        # and the bracket totals equal the report's per-timer seconds
        # up to the compiler-variability factor (identity for SYCL)
        for timer, seconds in report.seconds_by_timer.items():
            bracketed = sum(s.duration for s in spans_named(recorder, timer))
            assert bracketed == pytest.approx(seconds)
