"""Tests for the PP metric (Equation 1)."""

import pytest

from repro.core.metrics import (
    application_efficiency,
    harmonic_mean,
    performance_portability,
)


class TestHarmonicMean:
    def test_equal_values(self):
        assert harmonic_mean([0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_dominated_by_worst(self):
        # the harmonic mean punishes the weak platform
        assert harmonic_mean([1.0, 1.0, 0.1]) < 0.3

    def test_zero_anywhere_zeroes_everything(self):
        # Equation 1's "otherwise" branch
        assert harmonic_mean([1.0, 1.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([0.5, -0.1])

    def test_below_arithmetic_mean(self):
        values = [0.2, 0.9, 0.6]
        assert harmonic_mean(values) <= sum(values) / 3


class TestApplicationEfficiency:
    def test_best_time_gives_one(self):
        assert application_efficiency(2.0, 2.0) == 1.0

    def test_slower_gives_ratio(self):
        assert application_efficiency(4.0, 2.0) == pytest.approx(0.5)

    def test_capped_at_one(self):
        assert application_efficiency(1.0, 2.0) == 1.0

    def test_zero_observed_with_zero_best(self):
        assert application_efficiency(0.0, 0.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            application_efficiency(-1.0, 1.0)
        with pytest.raises(ValueError):
            application_efficiency(0.0, 1.0)


class TestPerformancePortability:
    def test_paper_equation_on_mapping(self):
        effs = {"Aurora": 0.8, "Polaris": 1.0, "Frontier": 1.0}
        expected = 3 / (1 / 0.8 + 1 + 1)
        assert performance_portability(effs) == pytest.approx(expected)

    def test_missing_platform_zeroes_pp(self):
        # CUDA / HIP / vISA in Figure 12
        assert performance_portability({"A": 1.0, "B": 0.0, "C": 1.0}) == 0.0

    def test_sequence_input(self):
        assert performance_portability([1.0, 1.0]) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            performance_portability({"A": 1.2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            performance_portability({})
