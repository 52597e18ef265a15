"""Tests for the kernel cost model."""

import pytest

from repro.machine.cost_model import CostModel, InstructionProfile, KernelLaunch
from repro.machine.device import GRFMode
from repro.machine.registry import AURORA, FRONTIER, POLARIS
from tests.machine.oracles import scaled


def flop_profile(fma: float = 1000.0, **kw) -> InstructionProfile:
    return InstructionProfile(fma=fma, registers_needed=32, **kw)


class TestComputeBound:
    def test_pure_fma_approaches_peak(self):
        cm = CostModel(POLARIS)
        profile = flop_profile(fma=100_000)
        cost = cm.kernel_cost(profile, KernelLaunch(n_workitems=10_000_000))
        # at full occupancy, achieved ~ peak * node mapping efficiency
        assert cost.achieved_tflops == pytest.approx(
            POLARIS.fp32_peak_tflops * POLARIS.node_mapping_efficiency, rel=0.01
        )

    def test_time_linear_in_workitems(self):
        cm = CostModel(FRONTIER)
        p = flop_profile()
        t1 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20)).seconds
        t2 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 21)).seconds
        assert t2 == pytest.approx(2 * t1)

    def test_fast_math_speeds_up_specials(self):
        cm = CostModel(POLARIS)
        p = InstructionProfile(fma=100, specials=100, registers_needed=32)
        slow = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, fast_math=False))
        fast = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, fast_math=True))
        assert fast.seconds < slow.seconds

    def test_breakdown_keys(self):
        cm = CostModel(AURORA)
        cost = cm.kernel_cost(flop_profile(), KernelLaunch(n_workitems=1024))
        assert set(cost.cycles) == {
            "compute",
            "communication",
            "local_memory",
            "atomics",
            "spills",
        }


class TestCommunicationCosts:
    def test_shuffles_hurt_intel_more(self):
        p_comm = InstructionProfile(fma=100, shuffles=100, registers_needed=32)
        p_flop = InstructionProfile(fma=100, registers_needed=32)
        launch = KernelLaunch(n_workitems=1 << 20)

        def overhead(dev):
            cm = CostModel(dev)
            return (
                cm.kernel_cost(p_comm, launch).seconds
                / cm.kernel_cost(p_flop, launch).seconds
            )

        assert overhead(AURORA) > 3 * overhead(POLARIS)

    def test_visa_raises_off_intel(self):
        cm = CostModel(POLARIS)
        p = InstructionProfile(fma=10, visa_exchanges=4, registers_needed=32)
        with pytest.raises(Exception):
            cm.kernel_cost(p, KernelLaunch(n_workitems=1024))


class TestSpills:
    def test_spills_slow_the_kernel(self):
        cm = CostModel(POLARIS)
        fits = InstructionProfile(fma=100, registers_needed=100, interactions=50)
        spills = InstructionProfile(fma=100, registers_needed=300, interactions=50)
        launch = KernelLaunch(n_workitems=1 << 20)
        assert (
            cm.kernel_cost(spills, launch).seconds
            > cm.kernel_cost(fits, launch).seconds
        )

    def test_intel_large_grf_absorbs_pressure(self):
        cm = CostModel(AURORA)
        p = InstructionProfile(fma=100, registers_needed=120, interactions=50)
        small = cm.kernel_cost(
            p, KernelLaunch(n_workitems=1 << 20, subgroup_size=32)
        )
        large = cm.kernel_cost(
            p,
            KernelLaunch(
                n_workitems=1 << 20, subgroup_size=32, grf_mode=GRFMode.LARGE
            ),
        )
        assert small.cycles["spills"] > 0
        assert large.cycles["spills"] == 0


class TestMemoryBound:
    def test_huge_traffic_is_memory_bound(self):
        cm = CostModel(POLARIS)
        p = InstructionProfile(fma=1, global_bytes=64_000, registers_needed=32)
        cost = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20))
        assert cost.bound == "memory"
        assert cost.seconds >= cost.compute_seconds

    def test_flop_kernel_is_compute_bound(self):
        cm = CostModel(POLARIS)
        cost = cm.kernel_cost(
            flop_profile(fma=10_000), KernelLaunch(n_workitems=1 << 20)
        )
        assert cost.bound == "compute"


class TestProfileHelpers:
    def test_scaled_multiplies_counts_not_state(self):
        p = InstructionProfile(
            fma=10, shuffles=2, registers_needed=77, local_mem_bytes_per_workgroup=512
        )
        s = scaled(p, 3.0)
        assert s.fma == 30
        assert s.shuffles == 6
        assert s.registers_needed == 77
        assert s.local_mem_bytes_per_workgroup == 512

    def test_flop_count(self):
        p = InstructionProfile(fma=10, flops=5, specials=2)
        assert p.flop_count == 27

    def test_bad_launch_rejected(self):
        with pytest.raises(ValueError):
            KernelLaunch(n_workitems=0)
        with pytest.raises(ValueError):
            KernelLaunch(n_workitems=128, workgroup_size=100, subgroup_size=32)


class TestLaneUtilisation:
    """Sub-groups below the native execution width waste lanes."""

    def test_wave32_on_frontier_halves_throughput(self):
        from repro.machine.registry import FRONTIER

        cm = CostModel(FRONTIER)
        p = flop_profile(fma=1000)
        t64 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, subgroup_size=64))
        t32 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, subgroup_size=32))
        assert t32.compute_seconds == pytest.approx(
            2 * t64.compute_seconds, rel=0.01
        )

    def test_sg16_on_aurora_keeps_full_throughput(self):
        # SIMD16 vector engines: a 16-wide sub-group is a full vector
        cm = CostModel(AURORA)
        p = flop_profile(fma=1000)
        t32 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, subgroup_size=32))
        t16 = cm.kernel_cost(p, KernelLaunch(n_workitems=1 << 20, subgroup_size=16))
        assert t16.compute_seconds == pytest.approx(t32.compute_seconds, rel=0.01)

    def test_utilisation_values(self):
        from repro.machine.registry import FRONTIER

        assert FRONTIER.lane_utilisation(64) == 1.0
        assert FRONTIER.lane_utilisation(32) == 0.5
        assert AURORA.lane_utilisation(16) == 1.0
        with pytest.raises(ValueError):
            AURORA.lane_utilisation(0)
