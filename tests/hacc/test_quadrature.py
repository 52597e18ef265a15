"""The fixed Gauss-Legendre rules against QUADPACK held to round-off.

``growth_factor``, the kick/drift factors and the sigma8 normalisation
are numpy quadratures; scipy (a test dependency only) integrates the
same quantities adaptively in their textbook variables, and the
short-range force factor's ``math.erfc`` is checked against
``scipy.special.erfc``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.hacc.cosmology import Cosmology
from repro.hacc.pm import PMConfig, PMSolver
from repro.hacc.power import TRANSFER_FUNCTIONS, PowerSpectrum
from repro.hacc.short_range import exact_short_range_factor
from tests.hacc import oracles

scale_factors = st.floats(0.005, 1.0)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class TestGrowthFactor:
    @given(scale_factors)
    @settings(max_examples=40, deadline=None)
    def test_matches_adaptive_quadrature(self, a):
        cosmo = Cosmology()
        assert relative_error(cosmo.growth_factor(a), oracles.growth_factor(cosmo, a)) <= 1e-12

    @pytest.mark.parametrize("omega_m", [0.05, 0.31, 1.0])
    def test_other_matter_densities(self, omega_m):
        cosmo = Cosmology(omega_m=omega_m, omega_b=0.0)
        for a in (0.005, 0.1, 0.7):
            assert relative_error(
                cosmo.growth_factor(a), oracles.growth_factor(cosmo, a)
            ) <= 1e-12


class TestLeapfrogFactors:
    @given(scale_factors, scale_factors)
    @settings(max_examples=40, deadline=None)
    def test_kick_and_drift_match_adaptive_quadrature(self, a_lo, a_hi):
        a0, a1 = sorted((a_lo, a_hi))
        if a1 == a0:
            return
        cosmo = Cosmology()
        for factor, power in ((cosmo.drift_factor, 3), (cosmo.kick_factor, 2)):
            reference = oracles.leapfrog_integral(cosmo, a0, a1, power)
            assert relative_error(factor(a0, a1), reference) <= 1e-12

    def test_paper_schedule(self):
        cosmo = Cosmology()
        edges = cosmo.step_schedule()
        for a0, a1 in zip(edges[:-1], edges[1:]):
            assert relative_error(
                cosmo.kick_factor(a0, a1), oracles.leapfrog_integral(cosmo, a0, a1, 2)
            ) <= 1e-12


class TestSigma8Normalisation:
    @pytest.mark.parametrize("transfer", sorted(TRANSFER_FUNCTIONS))
    def test_amplitude_matches_adaptive_quadrature(self, transfer):
        cosmo = Cosmology()
        power = PowerSpectrum(cosmo, transfer=transfer)
        amplitude = oracles.sigma8_amplitude(cosmo, transfer)
        k = np.array([1e-3, 0.1, 1.0, 10.0])
        unnormalised = k**cosmo.n_s * TRANSFER_FUNCTIONS[transfer](k, cosmo) ** 2
        assert np.max(np.abs(power(k) / (amplitude * unnormalised) - 1.0)) <= 1e-10


class TestShortRangeFactor:
    def test_erfc_matches_scipy(self):
        pm = PMSolver(10.0, PMConfig(n_mesh=48))
        r_s, cutoff = pm.split_scale, pm.cutoff
        r = np.linspace(0.0, cutoff, 4097)[1:]
        x = r / (2.0 * r_s)
        reference = special.erfc(x) + (r / (np.sqrt(np.pi) * r_s)) * np.exp(-(x**2))
        assert np.max(np.abs(exact_short_range_factor(r, r_s) / reference - 1.0)) <= 1e-14
