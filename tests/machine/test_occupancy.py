"""Tests for the occupancy calculator."""

import pytest

from repro.machine.device import GRFMode
from repro.machine.occupancy import OccupancyCalculator
from repro.machine.registry import AURORA, FRONTIER, POLARIS


class TestIntelOccupancy:
    def test_small_grf_full_occupancy(self):
        occ = OccupancyCalculator(AURORA).calculate(
            subgroup_size=32, workgroup_size=128, registers_needed=32
        )
        assert occ.occupancy >= 0.999
        assert occ.limited_by == "threads"

    def test_large_grf_caps_occupancy_at_half(self):
        # Section 5.2: "limiting achievable occupancy to 50%"
        occ = OccupancyCalculator(AURORA).calculate(
            subgroup_size=32,
            workgroup_size=128,
            registers_needed=32,
            grf_mode=GRFMode.LARGE,
        )
        assert occ.occupancy == pytest.approx(0.5)

    def test_register_demand_does_not_reduce_intel_occupancy(self):
        # fixed partition: demand beyond budget spills instead
        calc = OccupancyCalculator(AURORA)
        lo = calc.calculate(subgroup_size=32, workgroup_size=128, registers_needed=16)
        hi = calc.calculate(subgroup_size=32, workgroup_size=128, registers_needed=200)
        assert lo.occupancy == hi.occupancy


class TestOccupancyTraded:
    def test_full_occupancy_at_architected_budget(self):
        occ = OccupancyCalculator(POLARIS).calculate(
            subgroup_size=32,
            workgroup_size=128,
            registers_needed=POLARIS.registers_per_thread,
        )
        assert occ.occupancy >= 0.999

    def test_high_register_demand_reduces_occupancy(self):
        calc = OccupancyCalculator(POLARIS)
        occ = calc.calculate(
            subgroup_size=32, workgroup_size=128, registers_needed=128
        )
        assert occ.occupancy < 0.5
        assert occ.limited_by == "registers"

    def test_monotone_in_register_demand(self):
        calc = OccupancyCalculator(FRONTIER)
        values = [
            calc.calculate(
                subgroup_size=64, workgroup_size=128, registers_needed=r
            ).occupancy
            for r in (32, 64, 128, 256)
        ]
        assert values == sorted(values, reverse=True)


class TestLocalMemoryLimits:
    def test_local_memory_can_bound_occupancy(self):
        calc = OccupancyCalculator(FRONTIER)
        occ = calc.calculate(
            subgroup_size=64,
            workgroup_size=128,
            registers_needed=32,
            local_mem_bytes_per_workgroup=32 * 1024,
        )
        assert occ.limited_by == "local_mem"
        assert occ.occupancy < 1.0

    def test_zero_local_memory_no_limit(self):
        occ = OccupancyCalculator(FRONTIER).calculate(
            subgroup_size=64,
            workgroup_size=128,
            registers_needed=32,
            local_mem_bytes_per_workgroup=0,
        )
        assert occ.limited_by != "local_mem"


class TestValidation:
    def test_bad_workgroup_multiple(self):
        with pytest.raises(ValueError):
            OccupancyCalculator(POLARIS).calculate(
                subgroup_size=32, workgroup_size=100, registers_needed=32
            )

    def test_illegal_subgroup_size(self):
        with pytest.raises(ValueError):
            OccupancyCalculator(POLARIS).calculate(
                subgroup_size=16, workgroup_size=128, registers_needed=32
            )


class TestStallFactor:
    def test_full_occupancy_no_penalty(self):
        assert OccupancyCalculator(POLARIS).stall_factor(1.0) == pytest.approx(1.0)

    def test_zero_occupancy_max_penalty(self):
        calc = OccupancyCalculator(POLARIS)
        assert calc.stall_factor(0.0) == pytest.approx(1.0 + POLARIS.stall_weight)

    def test_monotone(self):
        calc = OccupancyCalculator(AURORA)
        assert calc.stall_factor(0.25) > calc.stall_factor(0.75)
