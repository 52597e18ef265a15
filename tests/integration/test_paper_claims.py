"""Integration regression: the paper's quantitative claims.

These tests freeze the reproduction's calibration against the paper's
evaluation.  Tolerances are deliberately wide enough to survive small
workload fluctuations (different neighbour statistics at the scaled
problem size) but tight enough that a regression in any model
component breaks them.

Paper-vs-measured values are catalogued in EXPERIMENTS.md.
"""

import pytest

from repro.core.cascade import cascade_data
from repro.experiments import figure2, figures9_11
from repro.kernels.specs import HOTSPOT_TIMERS
from tests.experiments.oracles import best_variant, worst_variant


@pytest.fixture(scope="module")
def cascade(reference_trace):
    return cascade_data(reference_trace)


@pytest.fixture(scope="module")
def efficiency_tables(reference_trace):
    return figures9_11.generate(reference_trace)


class TestFigure2Claims:
    @pytest.fixture(scope="class")
    def checks(self, reference_trace):
        return figure2.headline_checks(figure2.generate(reference_trace))

    def test_initial_sycl_beats_default_cuda(self, checks):
        # "SYCL significantly outperforming both CUDA on Polaris and
        # HIP on Frontier" (fast-math defaults, Section 4.4)
        assert checks["cuda_over_sycl_initial"] > 1.15
        assert checks["hip_over_sycl_initial"] > 1.15

    def test_fast_math_closes_the_gap(self, checks):
        # "Recompiling the CUDA and HIP codes with fast math flags
        # closes this gap ... the SYCL code is slightly faster"
        assert 1.0 <= checks["cuda_fast_over_sycl"] < 1.06
        assert 1.0 <= checks["hip_fast_over_sycl"] < 1.06

    def test_optimized_aurora_in_line_with_frontier(self, reference_trace):
        # "the theoretical peaks for the GPUs on Aurora and Frontier are
        # very similar ... using one of the variants more suited to the
        # architecture of Intel GPUs delivers performance more in line
        # with peak performance (and closes the gap ...)"
        from repro.kernels.adiabatic import best_variant_map, price_trace
        from repro.machine.registry import AURORA, FRONTIER
        from repro.proglang.model import ProgrammingModel

        best_aurora = best_variant_map(
            reference_trace, AURORA, ProgrammingModel.SYCL
        )
        aurora = price_trace(
            reference_trace, AURORA, ProgrammingModel.SYCL, best_aurora
        ).total_seconds
        frontier = price_trace(
            reference_trace, FRONTIER, ProgrammingModel.SYCL, "select"
        ).total_seconds
        initial = price_trace(
            reference_trace, AURORA, ProgrammingModel.SYCL, "select"
        ).total_seconds
        # before optimization Aurora lags Frontier badly; after, the
        # gap is within ~40%
        assert initial / frontier > 2.0
        assert aurora / frontier < 1.4

    def test_aurora_optimization_factor(self, checks):
        # paper: 2.4x; the reproduction lands near 3x (the cost model
        # slightly overweights the indirect-access penalty) -- same
        # direction, same order
        assert 2.0 < checks["aurora_optimization_factor"] < 4.0


class TestFigures9to11Claims:
    def test_aurora_select_always_worst(self, efficiency_tables):
        table = efficiency_tables["Aurora"]
        for timer in HOTSPOT_TIMERS:
            assert worst_variant(table, timer) == "select", timer

    def test_aurora_no_single_best_variant(self, efficiency_tables):
        table = efficiency_tables["Aurora"]
        winners = {best_variant(table, t) for t in HOTSPOT_TIMERS}
        assert len(winners) >= 2

    def test_aurora_broadcast_wins_atomic_heavy_kernels(self, efficiency_tables):
        table = efficiency_tables["Aurora"]
        for timer in ("upBarAc", "upBarAcF", "upBarDu", "upBarDuF"):
            assert best_variant(table, timer) == "broadcast", timer

    def test_aurora_best_variant_gains_2_to_5x(self, efficiency_tables):
        # paper: "can improve performance by 2-5x"; the energy kernel
        # sits right at the 5x edge in the reproduction
        table = efficiency_tables["Aurora"]
        for timer in HOTSPOT_TIMERS:
            select_eff = table.efficiencies["select"][timer]
            assert 0.17 <= select_eff <= 0.52, (timer, select_eff)

    def test_polaris_select_always_best(self, efficiency_tables):
        table = efficiency_tables["Polaris"]
        for timer in HOTSPOT_TIMERS:
            assert best_variant(table, timer) == "select", timer

    def test_polaris_broadcast_10x_on_some_kernels(self, efficiency_tables):
        table = efficiency_tables["Polaris"]
        worst = min(table.efficiencies["broadcast"][t] for t in HOTSPOT_TIMERS)
        assert worst < 0.15  # "almost 10x slower in some cases"

    def test_polaris_memory_worst_on_register_heavy_kernels(self, efficiency_tables):
        table = efficiency_tables["Polaris"]
        for variant in ("memory32", "memory_object"):
            effs = table.efficiencies[variant]
            heavy = min(effs[t] for t in ("upBarDu", "upBarDuF"))
            light = max(effs[t] for t in ("upGeo", "upCor"))
            assert heavy < light

    def test_frontier_select_always_best(self, efficiency_tables):
        table = efficiency_tables["Frontier"]
        for timer in HOTSPOT_TIMERS:
            assert best_variant(table, timer) == "select", timer

    def test_frontier_memory_object_almost_always_second(self, efficiency_tables):
        table = efficiency_tables["Frontier"]
        second_count = 0
        for timer in HOTSPOT_TIMERS:
            ranked = sorted(
                table.efficiencies,
                key=lambda v: table.efficiencies[v][timer],
                reverse=True,
            )
            if ranked[1] == "memory_object":
                second_count += 1
        assert second_count >= len(HOTSPOT_TIMERS) - 1

    def test_frontier_broadcast_around_0_6(self, efficiency_tables):
        table = efficiency_tables["Frontier"]
        effs = [table.efficiencies["broadcast"][t] for t in HOTSPOT_TIMERS]
        mean = sum(effs) / len(effs)
        assert 0.45 < mean < 0.75  # "typically ~0.6"


class TestFigure12Claims:
    """PP values (paper value in parentheses)."""

    def test_nonportable_configs_zero(self, cascade):
        assert cascade.pp["CUDA"] == 0.0
        assert cascade.pp["HIP"] == 0.0
        assert cascade.pp["vISA"] == 0.0

    def test_broadcast_pp(self, cascade):  # 0.44
        assert cascade.pp["SYCL (Broadcast)"] == pytest.approx(0.44, abs=0.07)

    def test_memory_object_pp(self, cascade):  # 0.79
        assert cascade.pp["SYCL (Memory, Object)"] == pytest.approx(0.79, abs=0.07)

    def test_select_memory_pp(self, cascade):  # 0.91
        assert cascade.pp["SYCL (Select + Memory)"] == pytest.approx(0.91, abs=0.05)

    def test_select_visa_pp(self, cascade):  # 0.96
        assert cascade.pp["SYCL (Select + vISA)"] == pytest.approx(0.96, abs=0.04)

    def test_unified_pp(self, cascade):  # 0.90
        assert cascade.pp["Unified"] == pytest.approx(0.90, abs=0.05)

    def test_specialisation_beats_single_source(self, cascade):
        # the Section 6.1 conclusion: mixing variants lifts PP
        single_best = max(
            cascade.pp[name]
            for name in (
                "SYCL (Select)",
                "SYCL (Memory, 32-bit)",
                "SYCL (Memory, Object)",
                "SYCL (Broadcast)",
            )
        )
        assert cascade.pp["SYCL (Select + Memory)"] > single_best
        assert cascade.pp["SYCL (Select + vISA)"] > single_best

    def test_specialised_sycl_beats_unified(self, cascade):
        # "higher than the performance portability ... from mixing
        # CUDA, HIP and SYCL"
        assert cascade.pp["SYCL (Select + vISA)"] > cascade.pp["Unified"]
