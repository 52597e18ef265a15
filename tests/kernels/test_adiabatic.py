"""Tests for trace pricing (the physics -> performance bridge)."""

import pytest

from repro.hacc.timestep import WorkloadTrace
from repro.kernels.adiabatic import (
    AdiabaticKernelDefinition,
    TracePricer,
    best_variant_map,
    compiler_variability,
    price_trace,
)
from repro.kernels.specs import KERNEL_SPECS
from repro.kernels.variants import ALL_VARIANTS, variant_by_name
from repro.machine.registry import AURORA, FRONTIER, POLARIS
from repro.proglang.model import CompileError, ProgrammingModel


@pytest.fixture
def tiny_trace():
    t = WorkloadTrace()
    for timer in ("upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu"):
        t.record(timer, 4096, 64.0)
    t.record("upGravSR", 8192, 200.0)
    return t


class TestDefinitionProfiles:
    def test_profile_scales_with_interactions(self):
        spec = KERNEL_SPECS["geometry"]
        v = variant_by_name("select")
        p1 = AdiabaticKernelDefinition(spec, v, 32.0).profile(
            POLARIS, subgroup_size=32, fast_math=True
        )
        p2 = AdiabaticKernelDefinition(spec, v, 64.0).profile(
            POLARIS, subgroup_size=32, fast_math=True
        )
        assert p2.fma == pytest.approx(2 * p1.fma)
        assert p2.shuffles == pytest.approx(2 * p1.shuffles)

    def test_atomics_follow_commit_interval(self):
        spec = KERNEL_SPECS["acceleration"]  # atomic_interval = 2
        v = variant_by_name("select")
        p = AdiabaticKernelDefinition(spec, v, 64.0).profile(
            POLARIS, subgroup_size=32, fast_math=True
        )
        assert p.atomic_adds == pytest.approx(spec.output_words * 64.0 / 2.0)

    def test_gravity_exchanges_amortised(self):
        spec = KERNEL_SPECS["gravity"]
        v = variant_by_name("select")
        p = AdiabaticKernelDefinition(spec, v, 160.0).profile(
            POLARIS, subgroup_size=32, fast_math=True
        )
        assert p.shuffles == pytest.approx(spec.payload_words * 160.0 / 16.0)


class TestTracePricer:
    def test_reports_every_timer(self, tiny_trace):
        report = price_trace(tiny_trace, FRONTIER, ProgrammingModel.SYCL, "select")
        assert set(report.seconds_by_timer) == {
            "upGeo",
            "upCor",
            "upBarEx",
            "upBarAc",
            "upBarDu",
            "upGravSR",
        }
        assert report.total_seconds > 0

    def test_visa_pricing_raises_off_intel(self, tiny_trace):
        with pytest.raises(CompileError):
            price_trace(tiny_trace, POLARIS, ProgrammingModel.SYCL, "visa")

    def test_unavailable_model_raises(self, tiny_trace):
        with pytest.raises(CompileError):
            TracePricer(AURORA, ProgrammingModel.CUDA, "select")

    def test_per_kernel_variant_mapping(self, tiny_trace):
        mapping = {name: variant_by_name("select") for name in KERNEL_SPECS}
        mapping["acceleration"] = variant_by_name("broadcast")
        report = price_trace(tiny_trace, AURORA, ProgrammingModel.SYCL, mapping)
        assert report.total_seconds > 0

    def test_incomplete_mapping_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            TracePricer(
                AURORA,
                ProgrammingModel.SYCL,
                {"geometry": variant_by_name("select")},
            )

    def test_fast_math_override_speeds_cuda(self, tiny_trace):
        slow = price_trace(tiny_trace, POLARIS, ProgrammingModel.CUDA, "select")
        fast = price_trace(
            tiny_trace, POLARIS, ProgrammingModel.CUDA, "select", fast_math=True
        )
        assert fast.total_seconds < slow.total_seconds

    def test_unknown_timer_rejected(self):
        t = WorkloadTrace()
        t.record("upMystery", 100, 10.0)
        with pytest.raises(KeyError):
            price_trace(t, FRONTIER, ProgrammingModel.SYCL, "select")


class TestBestVariantMap:
    def test_select_everywhere_on_polaris(self, tiny_trace):
        best = best_variant_map(tiny_trace, POLARIS, ProgrammingModel.SYCL)
        assert all(v.name == "select" for v in best.values())

    def test_aurora_mixes_variants(self, tiny_trace):
        best = best_variant_map(tiny_trace, AURORA, ProgrammingModel.SYCL)
        names = {v.name for v in best.values()}
        assert "select" not in names  # select is never best on Aurora
        assert len(names) >= 2  # no single best variant (Section 5.4)

    def test_best_beats_or_ties_every_single_variant(self, tiny_trace):
        best = best_variant_map(tiny_trace, AURORA, ProgrammingModel.SYCL)
        t_best = price_trace(
            tiny_trace, AURORA, ProgrammingModel.SYCL, best
        ).total_seconds
        for v in ALL_VARIANTS:
            if not v.supported(AURORA):
                continue
            t_single = price_trace(
                tiny_trace, AURORA, ProgrammingModel.SYCL, v
            ).total_seconds
            assert t_best <= t_single * (1 + 1e-12)


class TestCompilerVariability:
    def test_sycl_is_the_baseline(self):
        assert compiler_variability(ProgrammingModel.SYCL, "geometry") == 1.0

    def test_cuda_factor_small_and_deterministic(self):
        f1 = compiler_variability(ProgrammingModel.CUDA, "geometry")
        f2 = compiler_variability(ProgrammingModel.CUDA, "geometry")
        assert f1 == f2
        assert 0.97 < f1 < 1.05

    def test_kernels_differ(self):
        # "some kernels are slightly faster and some are slightly slower"
        factors = {
            compiler_variability(ProgrammingModel.CUDA, k) for k in KERNEL_SPECS
        }
        assert len(factors) == len(KERNEL_SPECS)


class TestBracketTimers:
    """The Section 3.4.4 rocprof cross-check, in miniature: spans of a
    recorder whose clock is the executor's simulated-seconds ledger are
    the MPI_wtime-style bracket timers."""

    KERNELS = ("upGeo", "upCor", "upBarEx")

    @pytest.fixture
    def executor(self):
        from repro.machine.executor import DeviceExecutor

        return DeviceExecutor(FRONTIER)

    @pytest.fixture
    def recorder(self, executor):
        from repro.observability.tracing import TraceRecorder

        return TraceRecorder(clock=executor.total_seconds)

    def submit(self, executor, name):
        from repro.machine.cost_model import InstructionProfile, KernelLaunch

        executor.submit(
            name,
            InstructionProfile(fma=500.0, registers_needed=32),
            KernelLaunch(n_workitems=1 << 16, subgroup_size=64),
        )

    def test_brackets_agree_with_profiler(self, executor, recorder):
        from tests.kernels.oracles import validate_against_profiler

        for name in self.KERNELS:
            with recorder.span(name, category="timer"):
                self.submit(executor, name)
        diffs = validate_against_profiler(recorder, executor)
        assert set(diffs) == set(self.KERNELS)
        assert all(d <= 1e-9 for d in diffs.values())

    def test_missing_bracket_detected(self, executor, recorder):
        from tests.kernels.oracles import validate_against_profiler

        with recorder.span("upGeo", category="timer"):
            self.submit(executor, "upGeo")
        self.submit(executor, "upCor")  # missed bracket
        with pytest.raises(ValueError, match="'upCor' disagrees with the profiler"):
            validate_against_profiler(recorder, executor)

    def test_total_gpu_bracket(self, executor, recorder):
        # the CRK-HACC timer that brackets *all* offloaded operations
        with recorder.span("gpu_total", category="timer"):
            for name in self.KERNELS:
                self.submit(executor, name)
        (span,) = recorder.spans
        assert span.duration == pytest.approx(executor.total_seconds())
