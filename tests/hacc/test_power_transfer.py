"""Tests for the Eisenstein-Hu transfer-function option."""

import numpy as np
import pytest

from repro.hacc.cosmology import Cosmology
from repro.hacc.power import (
    TRANSFER_FUNCTIONS,
    PowerSpectrum,
    bbks_transfer,
    eisenstein_hu_transfer,
)
from tests.hacc.oracles import sigma_r


class TestEisensteinHu:
    def test_unity_at_large_scales(self):
        t = eisenstein_hu_transfer(np.array([1e-5]), Cosmology())
        assert t[0] == pytest.approx(1.0, abs=2e-2)

    def test_monotone_decreasing(self):
        k = np.logspace(-4, 1, 60)
        t = eisenstein_hu_transfer(k, Cosmology())
        assert np.all(np.diff(t) < 0)

    def test_stronger_suppression_than_bbks(self):
        # baryons suppress small-scale power; EH carries more of that
        # than the Sugiyama-corrected BBKS shape
        k = np.logspace(-1, 1, 20)
        c = Cosmology()
        assert np.all(eisenstein_hu_transfer(k, c) < bbks_transfer(k, c))

    def test_baryon_fraction_matters(self):
        k = np.array([0.2])
        lo_b = Cosmology(omega_b=0.02)
        hi_b = Cosmology(omega_b=0.06)
        assert eisenstein_hu_transfer(k, hi_b)[0] < eisenstein_hu_transfer(k, lo_b)[0]

    def test_k_zero_defined(self):
        assert eisenstein_hu_transfer(np.array([0.0]), Cosmology())[0] == 1.0


class TestTransferSelection:
    def test_both_fits_registered(self):
        assert set(TRANSFER_FUNCTIONS) == {"bbks", "eisenstein-hu"}

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ValueError):
            PowerSpectrum(transfer="camb")

    def test_sigma8_pinned_for_both(self):
        c = Cosmology()
        for name in TRANSFER_FUNCTIONS:
            p = PowerSpectrum(c, transfer=name)
            assert sigma_r(p, 8.0) == pytest.approx(c.sigma8, rel=1e-9), name

    def test_different_shapes_after_normalisation(self):
        c = Cosmology()
        bbks = PowerSpectrum(c, transfer="bbks")
        eh = PowerSpectrum(c, transfer="eisenstein-hu")
        k = np.array([5.0])
        # same sigma8, different small-scale power
        assert bbks(k)[0] != pytest.approx(eh(k)[0], rel=0.05)

    def test_ics_generate_with_eh_spectrum(self):
        from repro.hacc.ic import ICConfig, zeldovich_ics

        c = Cosmology()
        p = zeldovich_ics(
            ICConfig(n_per_side=4, box=2.0),
            c,
            PowerSpectrum(c, transfer="eisenstein-hu"),
        )
        assert len(p) == 2 * 4**3
        p.validate()
