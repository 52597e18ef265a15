"""Tests for CPU support (Section 7.3)."""

import pytest

from repro.kernels.adiabatic import AdiabaticKernelDefinition, price_trace
from repro.kernels.specs import KERNEL_SPECS
from repro.kernels.variants import variant_by_name
from repro.machine.cost_model import KernelLaunch
from repro.machine.cpu import CPU_HOST, pp_with_cpu
from repro.machine.device import Vendor
from repro.machine.registry import all_devices
from repro.proglang.model import (
    CompileError,
    ProgrammingModel,
    is_available,
)
from tests.machine.oracles import atomic_cycle_share


class TestCPUDevice:
    def test_not_in_the_paper_platform_set(self):
        assert CPU_HOST not in all_devices()
        assert CPU_HOST.system == "CPU"

    def test_sycl_runs_on_cpu(self):
        # "the SYCL code is the only modern version of CRK-HACC that we
        # have been able to run on CPUs"
        assert is_available(ProgrammingModel.SYCL, CPU_HOST)
        assert is_available(ProgrammingModel.OPENCL_CPU, CPU_HOST)

    def test_cuda_hip_visa_do_not(self):
        assert not is_available(ProgrammingModel.CUDA, CPU_HOST)
        assert not is_available(ProgrammingModel.HIP, CPU_HOST)
        assert not is_available(ProgrammingModel.SYCL_VISA, CPU_HOST)

    def test_atomics_are_expensive(self):
        # the Section 7.3 diagnosis, as data
        for gpu in all_devices():
            assert CPU_HOST.atomic_cycles > 5 * gpu.atomic_cycles


class TestCPUCorrectness:
    """The SYCL kernels price (i.e. 'run') on the CPU backend."""

    def test_trace_prices_on_cpu(self, reference_trace):
        report = price_trace(
            reference_trace, CPU_HOST, ProgrammingModel.SYCL, "memory_object"
        )
        assert report.total_seconds > 0
        assert set(report.seconds_by_timer) == {
            inv.name for inv in reference_trace.invocations
        }

    def test_visa_variant_fails_on_cpu(self, reference_trace):
        with pytest.raises(CompileError):
            price_trace(reference_trace, CPU_HOST, ProgrammingModel.SYCL, "visa")


class TestSection73Diagnosis:
    def test_atomics_dominate_force_kernels_on_cpu(self):
        spec = KERNEL_SPECS["acceleration"]
        definition = AdiabaticKernelDefinition(
            spec, variant_by_name("memory_object"), 64.0
        )
        profile = definition.profile(CPU_HOST, subgroup_size=16, fast_math=True)
        launch = KernelLaunch(n_workitems=4096, subgroup_size=16)
        share = atomic_cycle_share(profile, launch)
        assert share > 0.4  # "primarily due to ... atomics"

    def test_atomics_minor_on_gpus(self):
        from repro.machine.registry import FRONTIER

        spec = KERNEL_SPECS["acceleration"]
        definition = AdiabaticKernelDefinition(
            spec, variant_by_name("memory_object"), 64.0
        )
        profile = definition.profile(FRONTIER, subgroup_size=64, fast_math=True)
        launch = KernelLaunch(n_workitems=4096, subgroup_size=64)
        share = atomic_cycle_share(profile, launch, FRONTIER)
        assert share < 0.3

    def test_untuned_cpu_drags_pp_down(self, reference_trace):
        res = pp_with_cpu(reference_trace)
        assert res["cpu_efficiency"] < 0.7
        assert res["pp_with_cpu"] < res["pp_gpus"]
