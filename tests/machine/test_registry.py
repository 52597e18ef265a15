"""Tests for the device registry (Table 1 data)."""

import pytest

from repro.machine.device import Vendor
from repro.machine.registry import (
    AURORA,
    FRONTIER,
    POLARIS,
    all_devices,
    device_by_name,
    table1_rows,
)


class TestRegistry:
    def test_three_devices_in_paper_order(self):
        assert [d.system for d in all_devices()] == ["Aurora", "Polaris", "Frontier"]

    def test_lookup_by_system_name_case_insensitive(self):
        assert device_by_name("aurora") is AURORA
        assert device_by_name("Frontier") is FRONTIER

    def test_lookup_by_registry_name(self):
        assert device_by_name("polaris-a100-half") is POLARIS

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            device_by_name("el-capitan")

    def test_vendors(self):
        assert AURORA.vendor is Vendor.INTEL
        assert POLARIS.vendor is Vendor.NVIDIA
        assert FRONTIER.vendor is Vendor.AMD


class TestSliceAccounting:
    """One MPI rank drives one slice (Section 3.4.2)."""

    def test_every_gpu_is_split_in_two(self):
        for dev in all_devices():
            assert dev.slices_per_gpu == 2

    def test_slice_peaks_are_half_the_gpu_rating(self):
        assert AURORA.fp32_peak_tflops == pytest.approx(45.9 / 2)
        assert POLARIS.fp32_peak_tflops == pytest.approx(19.5 / 2)
        assert FRONTIER.fp32_peak_tflops == pytest.approx(53.0 / 2)

    def test_polaris_pays_the_node_mapping_penalty(self):
        # ~11% lower efficiency from 2 ranks per A100 (Section 3.4.2)
        assert POLARIS.node_mapping_efficiency == pytest.approx(0.89)
        assert AURORA.node_mapping_efficiency == 1.0
        assert FRONTIER.node_mapping_efficiency == 1.0


class TestArchitecturalFacts:
    """The paper's microarchitectural claims, encoded as data."""

    def test_only_intel_accepts_inline_visa(self):
        assert AURORA.supports_inline_visa
        assert not POLARIS.supports_inline_visa
        assert not FRONTIER.supports_inline_visa

    def test_only_nvidia_emulates_float_atomic_minmax(self):
        # Section 5.1
        assert AURORA.native_float_atomic_minmax
        assert FRONTIER.native_float_atomic_minmax
        assert not POLARIS.native_float_atomic_minmax
        assert POLARIS.cas_emulation_factor > 1.0

    def test_only_nvidia_shares_local_memory_with_l1(self):
        # Section 5.4
        assert POLARIS.local_mem_shares_l1
        assert not AURORA.local_mem_shares_l1
        assert not FRONTIER.local_mem_shares_l1

    def test_only_intel_has_large_grf(self):
        assert AURORA.supports_large_grf
        assert not POLARIS.supports_large_grf
        assert not FRONTIER.supports_large_grf

    def test_default_subgroup_sizes_match_appendix(self):
        # -DHACC_SYCL_SG_SIZE: 16/32 on Aurora runs, 32 Polaris, 64 Frontier
        assert AURORA.default_subgroup_size == 32
        assert POLARIS.default_subgroup_size == 32
        assert FRONTIER.default_subgroup_size == 64


class TestTable1:
    def test_rows_match_paper(self):
        rows = {r["system"]: r for r in table1_rows()}
        assert rows["Aurora"]["fp32_peak_per_gpu_tflops"] == 45.9
        assert rows["Polaris"]["fp32_peak_per_gpu_tflops"] == 19.5
        assert rows["Frontier"]["fp32_peak_per_gpu_tflops"] == 53.0
        assert rows["Aurora"]["num_gpus"] == 6
        assert rows["Polaris"]["num_gpus"] == 4
        assert rows["Aurora"]["sockets"] == 2
