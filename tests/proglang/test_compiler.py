"""Tests for the virtual compiler."""

import pytest

from repro.machine.cost_model import InstructionProfile
from repro.machine.device import GRFMode
from repro.machine.executor import DeviceExecutor
from repro.machine.registry import AURORA, FRONTIER, POLARIS
from repro.proglang.compiler import CompileOptions, Compiler
from repro.proglang.kernel_ir import KernelDefinition
from repro.proglang.model import CompileError, ProgrammingModel


class ToyKernel(KernelDefinition):
    name = "toy"

    def __init__(self, required_subgroup_size=None):
        self.required_subgroup_size = required_subgroup_size

    def profile(self, device, *, subgroup_size, fast_math):
        return InstructionProfile(fma=10.0, registers_needed=32)


class TestCompilerConstruction:
    def test_unavailable_model_rejected_at_construction(self):
        with pytest.raises(CompileError):
            Compiler(AURORA, ProgrammingModel.CUDA)

    def test_available_model_accepted(self):
        Compiler(POLARIS, ProgrammingModel.CUDA)
        Compiler(AURORA, ProgrammingModel.SYCL_VISA)


class TestSubgroupResolution:
    def test_defaults_to_device_native(self):
        k = Compiler(FRONTIER, ProgrammingModel.SYCL).compile(ToyKernel())
        assert k.subgroup_size == 64

    def test_option_overrides(self):
        k = Compiler(AURORA, ProgrammingModel.SYCL).compile(
            ToyKernel(), CompileOptions(subgroup_size=16)
        )
        assert k.subgroup_size == 16

    def test_kernel_requirement_wins(self):
        # [[sycl::reqd_sub_group_size(S)]] (Section 4.3)
        k = Compiler(AURORA, ProgrammingModel.SYCL).compile(
            ToyKernel(required_subgroup_size=16)
        )
        assert k.subgroup_size == 16

    def test_conflicting_requirement_raises(self):
        with pytest.raises(CompileError):
            Compiler(AURORA, ProgrammingModel.SYCL).compile(
                ToyKernel(required_subgroup_size=16),
                CompileOptions(subgroup_size=32),
            )

    def test_unsupported_size_raises(self):
        with pytest.raises(CompileError):
            Compiler(POLARIS, ProgrammingModel.SYCL).compile(
                ToyKernel(), CompileOptions(subgroup_size=16)
            )


class TestFastMathResolution:
    def test_model_defaults_apply(self):
        sycl = Compiler(POLARIS, ProgrammingModel.SYCL).compile(ToyKernel())
        cuda = Compiler(POLARIS, ProgrammingModel.CUDA).compile(ToyKernel())
        assert sycl.fast_math and not cuda.fast_math

    def test_explicit_flag_overrides(self):
        cuda = Compiler(POLARIS, ProgrammingModel.CUDA).compile(
            ToyKernel(), CompileOptions(fast_math=True)
        )
        assert cuda.fast_math


class TestGRFMode:
    def test_large_grf_only_on_intel(self):
        Compiler(AURORA, ProgrammingModel.SYCL).compile(
            ToyKernel(), CompileOptions(grf_mode=GRFMode.LARGE)
        )
        with pytest.raises(CompileError):
            Compiler(FRONTIER, ProgrammingModel.SYCL).compile(
                ToyKernel(), CompileOptions(grf_mode=GRFMode.LARGE)
            )


class TestSubmission:
    def test_submit_records_on_executor(self):
        compiled = Compiler(FRONTIER, ProgrammingModel.SYCL).compile(ToyKernel())
        ex = DeviceExecutor(FRONTIER)
        compiled.submit(ex, 4096)
        assert ex.calls_by_kernel() == {"toy": 1}

    def test_wrong_executor_rejected(self):
        compiled = Compiler(FRONTIER, ProgrammingModel.SYCL).compile(ToyKernel())
        with pytest.raises(CompileError):
            compiled.submit(DeviceExecutor(POLARIS), 4096)
