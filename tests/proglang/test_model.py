"""Tests for programming-model availability (the PP=0 mechanism)."""

import pytest

from repro.machine.registry import AURORA, FRONTIER, POLARIS
from repro.proglang.model import (
    CompileError,
    ProgrammingModel,
    default_fast_math,
    is_available,
    require_available,
)


class TestAvailabilityMatrix:
    def test_cuda_targets_only_nvidia(self):
        assert is_available(ProgrammingModel.CUDA, POLARIS)
        assert not is_available(ProgrammingModel.CUDA, AURORA)
        assert not is_available(ProgrammingModel.CUDA, FRONTIER)

    def test_hip_targets_nvidia_and_amd(self):
        assert is_available(ProgrammingModel.HIP, POLARIS)
        assert is_available(ProgrammingModel.HIP, FRONTIER)
        assert not is_available(ProgrammingModel.HIP, AURORA)

    def test_sycl_targets_everything(self):
        for dev in (AURORA, POLARIS, FRONTIER):
            assert is_available(ProgrammingModel.SYCL, dev)

    def test_visa_targets_only_intel(self):
        assert is_available(ProgrammingModel.SYCL_VISA, AURORA)
        assert not is_available(ProgrammingModel.SYCL_VISA, POLARIS)
        assert not is_available(ProgrammingModel.SYCL_VISA, FRONTIER)


class TestFastMathDefaults:
    """Section 4.4: DPC++ defaults to fast math; nvcc/hipcc do not."""

    def test_sycl_defaults_fast(self):
        assert default_fast_math(ProgrammingModel.SYCL)
        assert default_fast_math(ProgrammingModel.SYCL_VISA)

    def test_cuda_hip_default_precise(self):
        assert not default_fast_math(ProgrammingModel.CUDA)
        assert not default_fast_math(ProgrammingModel.HIP)


class TestRequireAvailable:
    def test_passes_when_available(self):
        require_available(ProgrammingModel.SYCL, FRONTIER)

    def test_raises_compile_error(self):
        with pytest.raises(CompileError):
            require_available(ProgrammingModel.CUDA, AURORA)
        with pytest.raises(CompileError):
            require_available(ProgrammingModel.SYCL_VISA, FRONTIER)
