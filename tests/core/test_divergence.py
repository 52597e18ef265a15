"""Tests for code divergence (Equations 2-3)."""

import pytest

from repro.core.divergence import code_convergence, code_divergence, jaccard_distance


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_distance({1, 2}, {1, 2}) == 0.0

    def test_disjoint_sets(self):
        assert jaccard_distance({1}, {2}) == 1.0

    def test_partial_overlap(self):
        # |∩| = 1, |∪| = 3
        assert jaccard_distance({1, 2}, {2, 3}) == pytest.approx(2 / 3)

    def test_both_empty(self):
        assert jaccard_distance(set(), set()) == 0.0

    def test_symmetric(self):
        a, b = {1, 2, 3}, {3, 4}
        assert jaccard_distance(a, b) == jaccard_distance(b, a)


class TestCodeDivergence:
    def test_fully_shared_is_zero(self):
        lines = {"A": {1, 2, 3}, "B": {1, 2, 3}, "C": {1, 2, 3}}
        assert code_divergence(lines) == 0.0
        assert code_convergence(lines) == 1.0

    def test_fully_specialised_is_one(self):
        lines = {"A": {1}, "B": {2}, "C": {3}}
        assert code_divergence(lines) == 1.0

    def test_average_over_pairs(self):
        # two identical platforms, one disjoint: mean of (0, 1, 1)
        lines = {"A": {1, 2}, "B": {1, 2}, "C": {9}}
        assert code_divergence(lines) == pytest.approx(2 / 3)

    def test_needs_two_platforms(self):
        with pytest.raises(ValueError):
            code_divergence({"A": {1}})

    def test_19_line_specialisation_is_nearly_converged(self):
        # Section 6.2: select vs memory differ by only 19 lines
        shared = set(range(56_624))
        mem = shared | {("mem", i) for i in range(19)}
        lines = {"Aurora": mem, "Polaris": shared, "Frontier": shared}
        assert code_convergence(lines) > 0.999
