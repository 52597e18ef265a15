"""Property-based tests for the virtual-GPU cost model.

The figures depend on the model behaving monotonically: more work can
never be cheaper, spills can never help, fast math can never hurt.
These invariants are what keep the calibrated comparisons meaningful.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cost_model import CostModel, InstructionProfile, KernelLaunch
from repro.machine.registry import AURORA, FRONTIER, POLARIS, all_devices
from tests.machine.oracles import scaled

devices = st.sampled_from(list(all_devices()))

count = st.floats(0.0, 500.0)


@st.composite
def profiles(draw):
    return InstructionProfile(
        # a subnormal fma (5e-324) prices to a time that underflows to 0 s
        fma=draw(st.floats(0.0, 500.0, allow_subnormal=False)),
        flops=draw(count),
        int_ops=draw(count),
        specials=draw(st.floats(0.0, 50.0)),
        shuffles=draw(st.floats(0.0, 50.0)),
        broadcasts=draw(st.floats(0.0, 50.0)),
        reduces=draw(st.floats(0.0, 10.0)),
        lm_exchanges_32bit=draw(st.floats(0.0, 20.0)),
        atomic_adds=draw(st.floats(0.0, 20.0)),
        atomic_minmax=draw(st.floats(0.0, 5.0)),
        global_bytes=draw(st.floats(0.0, 4000.0)),
        registers_needed=draw(st.integers(8, 320)),
        interactions=draw(st.floats(1.0, 200.0)),
    )


def launch_for(device, n=1 << 18):
    return KernelLaunch(n_workitems=n, subgroup_size=device.default_subgroup_size)


class TestCostModelProperties:
    @given(devices, profiles())
    @settings(max_examples=60, deadline=None)
    def test_time_positive_when_work_exists(self, device, profile):
        cost = CostModel(device).kernel_cost(profile, launch_for(device))
        assert cost.seconds >= 0.0
        if profile.fma > 0:
            assert cost.seconds > 0.0

    @given(devices, profiles(), st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_work(self, device, profile, factor):
        cm = CostModel(device)
        base = cm.kernel_cost(profile, launch_for(device))
        more = cm.kernel_cost(scaled(profile, factor), launch_for(device))
        assert more.seconds >= base.seconds * 0.999

    @given(devices, profiles())
    @settings(max_examples=60, deadline=None)
    def test_fast_math_never_slower(self, device, profile):
        cm = CostModel(device)
        launch = launch_for(device)
        fast = cm.kernel_cost(
            profile, dataclasses.replace(launch, fast_math=True)
        )
        precise = cm.kernel_cost(
            profile, dataclasses.replace(launch, fast_math=False)
        )
        assert fast.seconds <= precise.seconds * (1 + 1e-12)

    @given(devices, profiles(), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_more_registers_never_compute_faster(self, device, profile, extra):
        # register pressure can only hurt the compute path (spills,
        # occupancy).  The *memory* path may legitimately speed up:
        # fewer resident work-groups carve less shared memory out of
        # L1, raising effective bandwidth on the A100.
        cm = CostModel(device)
        heavier = dataclasses.replace(
            profile, registers_needed=profile.registers_needed + extra
        )
        a = cm.kernel_cost(profile, launch_for(device)).compute_seconds
        b = cm.kernel_cost(heavier, launch_for(device)).compute_seconds
        assert b >= a * 0.999

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_time_linear_in_workitems(self, profile):
        cm = CostModel(FRONTIER)
        t1 = cm.kernel_cost(profile, launch_for(FRONTIER, 1 << 18)).seconds
        t2 = cm.kernel_cost(profile, launch_for(FRONTIER, 1 << 19)).seconds
        if t1 > 0:
            assert 1.8 <= t2 / t1 <= 2.2

    @given(profiles())
    @settings(max_examples=60, deadline=None)
    def test_shuffles_cost_more_on_intel_than_amd(self, profile):
        if profile.shuffles < 1.0:
            return
        base = dataclasses.replace(profile, shuffles=0.0)

        def overhead(device):
            cm = CostModel(device)
            launch = launch_for(device)
            with_s = sum(cm.kernel_cost(profile, launch).cycles.values())
            without = sum(cm.kernel_cost(base, launch).cycles.values())
            return with_s - without

        assert overhead(AURORA) > overhead(FRONTIER)

    @given(devices, profiles())
    @settings(max_examples=60, deadline=None)
    def test_breakdown_consistent(self, device, profile):
        cost = CostModel(device).kernel_cost(profile, launch_for(device))
        assert all(v >= 0 for v in cost.cycles.values())
        assert cost.seconds >= max(
            cost.compute_seconds, cost.memory_seconds
        ) * 0.999 / max(device.node_mapping_efficiency, 1e-9)
