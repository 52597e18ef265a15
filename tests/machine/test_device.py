"""Tests for the device model."""

import pytest

from repro.machine.device import (
    DeviceSpec,
    GRFMode,
    ShuffleImplementation,
    UnsupportedSubgroupSize,
)
from repro.machine.registry import AURORA, FRONTIER, POLARIS, all_devices
from tests.machine.oracles import peak_consistency_error, total_lanes


class TestDerivedQuantities:
    def test_total_lanes(self):
        assert total_lanes(AURORA) == 512 * 16
        assert total_lanes(POLARIS) == 54 * 64
        assert total_lanes(FRONTIER) == 110 * 64

    def test_peak_flops_units(self):
        assert AURORA.peak_flops == pytest.approx(45.9e12 / 2)

    def test_peak_consistency_within_vendor_rating_slack(self):
        # rated peaks vs lanes*2*clock agree to ~15% (boost clocks)
        for dev in all_devices():
            assert peak_consistency_error(dev) < 0.16, dev.name


class TestRegistersPerWorkitem:
    def test_intel_simd32_small_grf(self):
        # 128 GRF registers x 16 elements / 32 work-items = 64 scalars
        assert AURORA.registers_per_workitem(32, GRFMode.SMALL) == 64

    def test_intel_simd16_large_grf_is_4x(self):
        # Section 5.2: the combination gives a 4x register headroom
        small = AURORA.registers_per_workitem(32, GRFMode.SMALL)
        large = AURORA.registers_per_workitem(16, GRFMode.LARGE)
        assert large == 4 * small == 256

    def test_scalar_regfiles_ignore_subgroup_size(self):
        assert POLARIS.registers_per_workitem(
            32, GRFMode.SMALL
        ) == POLARIS.registers_per_thread

    def test_large_grf_rejected_off_intel(self):
        with pytest.raises(ValueError):
            POLARIS.registers_per_workitem(32, GRFMode.LARGE)

    def test_threads_halved_in_large_grf(self):
        assert AURORA.threads_per_cu_for(GRFMode.LARGE) == AURORA.threads_per_cu // 2


class TestSubgroupSizes:
    @pytest.mark.parametrize(
        "device,sizes",
        [(AURORA, (16, 32)), (POLARIS, (32,)), (FRONTIER, (32, 64))],
    )
    def test_supported_sizes_match_section_4_3(self, device, sizes):
        assert device.subgroup_sizes == sizes
        for s in sizes:
            device.validate_subgroup_size(s)

    def test_illegal_size_raises(self):
        with pytest.raises(UnsupportedSubgroupSize):
            POLARIS.validate_subgroup_size(16)
        with pytest.raises(UnsupportedSubgroupSize):
            AURORA.validate_subgroup_size(64)


class TestShuffleCycles:
    def test_intel_indirect_access_scales_with_lanes(self):
        # Section 5.3: one cycle per element
        assert AURORA.shuffle_cycles(32) == pytest.approx(32.0)
        assert AURORA.shuffle_cycles(16) == pytest.approx(16.0)

    def test_intel_compile_time_pattern_uses_regioning(self):
        assert AURORA.shuffle_cycles(32, compile_time_pattern=True) < 4

    def test_dedicated_shuffle_is_flat(self):
        assert POLARIS.shuffle_cycles(32) == POLARIS.dedicated_shuffle_cycles
        assert FRONTIER.shuffle_cycles(64) == FRONTIER.dedicated_shuffle_cycles


class TestOverrides:
    def test_summary_fields(self):
        s = AURORA.summary()
        assert s["vendor"] == "intel"
        assert s["shuffle_impl"] == ShuffleImplementation.INDIRECT_REGISTER.value
        assert s["fp32_peak_tflops_gpu"] == pytest.approx(45.9)
