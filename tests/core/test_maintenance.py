"""Tests for the Section 7.1 maintenance-cost model."""

import pytest

from repro.core.maintenance import (
    kernel_change_factors,
    maintenance_factor,
)


@pytest.fixture(scope="module")
def factors(codebase_model):
    return kernel_change_factors(codebase_model)


class TestMaintenanceFactors:
    def test_single_source_configs_cost_one(self, factors):
        for name in (
            "SYCL (Select)",
            "SYCL (Memory, 32-bit)",
            "SYCL (Memory, Object)",
            "SYCL (Broadcast)",
        ):
            assert factors[name] == pytest.approx(1.0)

    def test_unified_roughly_doubles_maintenance(self, factors):
        # Section 7.1: "any duplication of logic ... duplicates the
        # cost of code maintenance" -- CUDA and SYCL kernel copies,
        # plus the CUDA-only lines the HIP wrapper does not share
        assert 1.8 < factors["Unified"] < 2.5

    def test_specialised_sycl_stays_near_one(self, factors):
        # the 19-line and 226-line specializations barely register
        assert factors["SYCL (Select + Memory)"] < 1.01
        assert factors["SYCL (Select + vISA)"] < 1.05

    def test_ordering_matches_section_7_1(self, factors):
        assert (
            factors["SYCL (Select)"]
            <= factors["SYCL (Select + Memory)"]
            < factors["SYCL (Select + vISA)"]
            < factors["Unified"]
        )


class TestEstimateDetails:
    def test_kernel_region_sizes_reported(self, codebase_model):
        est = maintenance_factor(codebase_model, "Unified")
        assert set(est.kernel_region_sizes) == {"Aurora", "Polaris", "Frontier"}
        # the SYCL build's kernel region is larger than CUDA's
        # (Table 2's 1.7x line inflation)
        assert est.kernel_region_sizes["Aurora"] > est.kernel_region_sizes["Polaris"]

    def test_unknown_configuration_rejected(self, codebase_model):
        with pytest.raises(KeyError):
            maintenance_factor(codebase_model, "Fortran")
