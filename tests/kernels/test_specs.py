"""Tests for the kernel workload characterizations."""

import pytest

from repro.hacc.timestep import GRAVITY_KERNEL, TIMER_NAMES
from repro.kernels.specs import (
    HOTSPOT_TIMERS,
    KERNEL_SPECS,
    TIMER_TO_KERNEL,
)
from tests.kernels.oracles import HOTSPOT_KERNELS


class TestCoverage:
    def test_five_hotspots_plus_gravity(self):
        assert set(KERNEL_SPECS) == set(HOTSPOT_KERNELS) | {"gravity"}

    def test_every_driver_timer_maps_to_a_spec(self):
        for timer in TIMER_NAMES + (GRAVITY_KERNEL,):
            assert timer in TIMER_TO_KERNEL, timer

    def test_acceleration_and_energy_have_two_timers(self):
        # "Some of CRK-HACC's kernels are called more than once in a
        # single timestep" (Section 5.4)
        assert KERNEL_SPECS["acceleration"].timers == ("upBarAc", "upBarAcF")
        assert KERNEL_SPECS["energy"].timers == ("upBarDu", "upBarDuF")

    def test_hotspot_timers_are_the_figure_axes(self):
        assert HOTSPOT_TIMERS == (
            "upGeo",
            "upCor",
            "upBarEx",
            "upBarAc",
            "upBarAcF",
            "upBarDu",
            "upBarDuF",
        )


class TestPhysicalConsistency:
    """The characterizations must be consistent with the physics."""

    def test_all_counts_positive(self):
        for spec in KERNEL_SPECS.values():
            assert spec.fma_per_pair > 0
            assert spec.payload_words > 0
            assert spec.output_words > 0
            assert spec.registers_halfwarp > 0

    def test_acceleration_has_largest_payload(self):
        # it reads the full pair state (position, h, V, v, P, rho, cs, m)
        accel = KERNEL_SPECS["acceleration"]
        assert accel.payload_words == max(
            s.payload_words for s in KERNEL_SPECS.values()
        )

    def test_extras_commits_most_outputs(self):
        # rho + grad rho(3) + grad v(9) + grad P(3)
        assert KERNEL_SPECS["extras"].output_words == 16

    def test_register_heavy_kernels(self):
        # Section 5.4 calls Energy and Acceleration "register heavy"
        heavy = {"acceleration", "energy"}
        threshold = KERNEL_SPECS["geometry"].registers_halfwarp
        for name in heavy:
            assert KERNEL_SPECS[name].registers_halfwarp > 2 * threshold

    def test_broadcast_roughly_doubles_registers(self):
        # both particles live per work-item (Section 5.3.2)
        for spec in KERNEL_SPECS.values():
            assert spec.registers_broadcast > 1.8 * spec.registers_halfwarp

    def test_broadcast_reduces_atomics_and_inflates_flops(self):
        for spec in KERNEL_SPECS.values():
            assert spec.broadcast_atomic_factor < 1.0
            assert spec.broadcast_flop_factor > 1.0

    def test_atomic_heavy_kernels_commit_frequently(self):
        # acceleration/energy commit partial sums every few iterations
        assert KERNEL_SPECS["acceleration"].atomic_interval < 4
        assert KERNEL_SPECS["energy"].atomic_interval < 4
        assert KERNEL_SPECS["geometry"].atomic_interval >= 8

    def test_only_force_kernels_do_minmax_reductions(self):
        for name, spec in KERNEL_SPECS.items():
            if name in ("acceleration", "energy"):
                assert spec.minmax_per_particle > 0
            else:
                assert spec.minmax_per_particle == 0

    def test_uniform_registers_bounded_by_total(self):
        for spec in KERNEL_SPECS.values():
            assert spec.uniform_registers_halfwarp < spec.registers_halfwarp
            assert spec.uniform_registers_broadcast < spec.registers_broadcast

    def test_gravity_amortises_exchanges(self):
        # the j-block is loaded once per leaf-pair instance
        assert KERNEL_SPECS["gravity"].exchange_interval == 16.0
        for name in HOTSPOT_KERNELS:
            assert KERNEL_SPECS[name].exchange_interval == 1.0

    def test_flops_trace_to_kernel_math(self):
        from repro.hacc.sph.kernels_math import (
            GRADW_FLOPS_PER_PAIR,
            W_FLOPS_PER_PAIR,
        )

        # geometry evaluates one W per pair; acceleration evaluates two
        # corrected gradients -- the specs must reflect that ordering
        geo = KERNEL_SPECS["geometry"].fma_per_pair
        accel = KERNEL_SPECS["acceleration"].fma_per_pair
        assert accel > geo
        assert geo >= W_FLOPS_PER_PAIR / 2
        assert accel >= GRADW_FLOPS_PER_PAIR
