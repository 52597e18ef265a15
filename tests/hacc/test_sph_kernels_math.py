"""Tests for the smoothing-kernel mathematics."""

import numpy as np
import pytest

from repro.hacc.sph.kernels_math import (
    SUPPORT,
    cubic_spline,
    cubic_spline_derivative,
    cubic_spline_gradient,
    kernel_self_value,
)
from tests.hacc.oracles import verify_normalisation


class TestKernelValues:
    def test_normalised_to_unity(self):
        assert verify_normalisation(h=1.0) == pytest.approx(1.0, abs=1e-3)
        assert verify_normalisation(h=2.5) == pytest.approx(1.0, abs=1e-3)

    def test_compact_support(self):
        r = np.array([2.0, 2.5, 10.0])
        assert np.all(cubic_spline(r, np.ones(3)) == 0.0)

    def test_positive_inside_support(self):
        r = np.linspace(0, SUPPORT * 0.999, 50)
        w = cubic_spline(r, np.ones(50))
        assert np.all(w > 0)

    def test_monotone_decreasing(self):
        r = np.linspace(0, SUPPORT, 200)
        w = cubic_spline(r, np.ones(200))
        assert np.all(np.diff(w) <= 1e-15)

    def test_self_value_matches_zero_separation(self):
        h = np.array([0.7, 1.3])
        assert np.allclose(kernel_self_value(h), cubic_spline(np.zeros(2), h))

    def test_scaling_with_h(self):
        # W(0, h) ~ h^-3
        assert kernel_self_value(np.array([2.0]))[0] == pytest.approx(
            kernel_self_value(np.array([1.0]))[0] / 8.0
        )

    def test_invalid_h_rejected(self):
        with pytest.raises(ValueError):
            cubic_spline(np.array([1.0]), np.array([0.0]))


class TestDerivative:
    def test_matches_finite_difference(self):
        r = np.linspace(0.05, 1.95, 100)
        h = np.ones(100)
        eps = 1e-6
        fd = (cubic_spline(r + eps, h) - cubic_spline(r - eps, h)) / (2 * eps)
        assert np.allclose(cubic_spline_derivative(r, h), fd, atol=1e-5)

    def test_non_positive_inside_support(self):
        r = np.linspace(0.0, 2.0, 100)
        assert np.all(cubic_spline_derivative(r, np.ones(100)) <= 0)

    def test_zero_at_support_edge(self):
        assert cubic_spline_derivative(np.array([2.0]), np.array([1.0]))[0] == 0.0


class TestGradient:
    def test_points_against_displacement(self, rng):
        # dW/dr < 0: the gradient points from j toward i reversed
        dx = rng.normal(size=(50, 3))
        r = np.linalg.norm(dx, axis=1)
        g = cubic_spline_gradient(dx, r, np.full(50, 2.0))
        dots = np.einsum("ij,ij->i", g, dx)
        inside = r < 2.0 * SUPPORT
        assert np.all(dots[inside & (r > 0)] <= 0)

    def test_zero_at_origin(self):
        g = cubic_spline_gradient(np.zeros((1, 3)), np.zeros(1), np.ones(1))
        assert np.all(g == 0.0)

    def test_antisymmetric_in_displacement(self, rng):
        dx = rng.normal(size=(20, 3)) * 0.5
        r = np.linalg.norm(dx, axis=1)
        h = np.ones(20)
        g1 = cubic_spline_gradient(dx, r, h)
        g2 = cubic_spline_gradient(-dx, r, h)
        assert np.allclose(g1, -g2)
