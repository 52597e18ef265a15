"""Tests for the register allocation / spill model."""

import pytest

from repro.machine.device import GRFMode
from repro.machine.registers import RegisterModel
from repro.machine.registry import AURORA, FRONTIER, POLARIS


class TestBudgets:
    def test_intel_budget_tracks_grf_and_subgroup(self):
        model = RegisterModel(AURORA)
        assert model.budget(subgroup_size=32, grf_mode=GRFMode.SMALL) == 64
        assert model.budget(subgroup_size=16, grf_mode=GRFMode.SMALL) == 128
        assert model.budget(subgroup_size=32, grf_mode=GRFMode.LARGE) == 128
        assert model.budget(subgroup_size=16, grf_mode=GRFMode.LARGE) == 256

    def test_nvidia_budget_is_architectural_max(self):
        model = RegisterModel(POLARIS)
        assert model.budget(subgroup_size=32, grf_mode=GRFMode.SMALL) == 255

    def test_amd_budget(self):
        model = RegisterModel(FRONTIER)
        assert model.budget(subgroup_size=64, grf_mode=GRFMode.SMALL) == 256


class TestAssignment:
    def test_within_budget_no_spills(self):
        a = RegisterModel(POLARIS).assign(100, subgroup_size=32)
        assert a.allocated == 100
        assert a.spilled == 0

    def test_beyond_budget_spills_excess(self):
        a = RegisterModel(POLARIS).assign(300, subgroup_size=32)
        assert a.allocated == 255
        assert a.spilled == 45

    def test_intel_spills_against_fixed_partition(self):
        a = RegisterModel(AURORA).assign(
            100, subgroup_size=32, grf_mode=GRFMode.SMALL
        )
        assert a.spilled == 36  # 100 - 64

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            RegisterModel(POLARIS).assign(-1, subgroup_size=32)


class TestSpillCycles:
    def test_no_spills_no_cost(self):
        model = RegisterModel(POLARIS)
        a = model.assign(64, subgroup_size=32)
        assert model.spill_cycles(a) == 0.0

    def test_cost_scales_with_spilled_registers(self):
        model = RegisterModel(FRONTIER)
        small = model.spill_cycles(model.assign(266, subgroup_size=64))
        large = model.spill_cycles(model.assign(306, subgroup_size=64))
        assert large > small > 0

    def test_nvidia_spill_cliff_is_superlinear(self):
        # spill_pressure_exponent > 1 models the A100's spill cliff
        # (Section 5.4: broadcast "almost 10x slower in some cases")
        model = RegisterModel(POLARIS)
        c10 = model.spill_cycles(model.assign(265, subgroup_size=32))
        c40 = model.spill_cycles(model.assign(295, subgroup_size=32))
        assert c40 > 4.0 * c10  # superlinear in spilled count

    def test_intel_spills_cheaper_than_nvidia(self):
        assert AURORA.spill_cycles_per_register < POLARIS.spill_cycles_per_register
