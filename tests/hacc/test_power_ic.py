"""Tests for the power spectrum and Zel'dovich initial conditions."""

import numpy as np
import pytest

from repro.hacc.cosmology import Cosmology
from repro.hacc.ic import ICConfig, displacement_field, zeldovich_ics
from repro.hacc.particles import Species
from repro.hacc.power import PowerSpectrum, bbks_transfer
from repro.hacc.units import particle_mass
from tests.hacc.oracles import sigma_r


@pytest.fixture(scope="module")
def power():
    return PowerSpectrum(Cosmology())


class TestTransferFunction:
    def test_unity_at_large_scales(self):
        t = bbks_transfer(np.array([1e-5]), Cosmology())
        assert t[0] == pytest.approx(1.0, abs=1e-3)

    def test_suppression_at_small_scales(self):
        t = bbks_transfer(np.array([10.0]), Cosmology())
        assert t[0] < 0.01

    def test_monotone_decreasing(self):
        k = np.logspace(-4, 1, 50)
        t = bbks_transfer(k, Cosmology())
        assert np.all(np.diff(t) < 0)


class TestNormalisation:
    def test_sigma8_pinned(self, power):
        assert sigma_r(power, 8.0) == pytest.approx(power.cosmology.sigma8, rel=1e-9)

    def test_growth_scaling_with_redshift(self, power):
        k = np.array([0.1])
        ratio = power(k, z=50.0)[0] / power(k, z=0.0)[0]
        d = power.cosmology.growth_factor(1 / 51.0)
        assert ratio == pytest.approx(d**2, rel=1e-6)

    def test_zero_mode_zero_power(self, power):
        assert power(np.array([0.0]))[0] == 0.0

    def test_bad_radius_rejected(self, power):
        with pytest.raises(ValueError):
            sigma_r(power, 0.0)


class TestDisplacementField:
    def test_shapes_and_zero_mean(self, power):
        config = ICConfig(n_per_side=8, box=5.0, seed=3)
        cosmo = Cosmology()
        psi, vel = displacement_field(config, cosmo, power)
        assert psi.shape == (8, 8, 8, 3)
        assert vel.shape == (8, 8, 8, 3)
        # DC mode removed: displacements average to zero
        assert np.allclose(psi.mean(axis=(0, 1, 2)), 0.0, atol=1e-10)

    def test_velocity_proportional_to_displacement(self, power):
        config = ICConfig(n_per_side=8, box=5.0, seed=3)
        cosmo = Cosmology()
        psi, vel = displacement_field(config, cosmo, power)
        a = float(cosmo.a_of_z(config.z_initial))
        # canonical-momentum convention: p = a^2 H f psi
        factor = a * a * cosmo.growth_rate(a) * cosmo.H(a)
        assert np.allclose(vel, psi * factor)

    def test_deterministic_under_seed(self, power):
        config = ICConfig(n_per_side=8, box=5.0, seed=11)
        cosmo = Cosmology()
        psi1, _ = displacement_field(config, cosmo, power)
        psi2, _ = displacement_field(config, cosmo, power)
        assert np.array_equal(psi1, psi2)


class TestZeldovichICs:
    def test_two_species_equal_counts(self, small_particles):
        assert small_particles.count(Species.DARK_MATTER) == 6**3
        assert small_particles.count(Species.BARYON) == 6**3

    def test_positions_in_box(self, small_particles):
        pos = small_particles.positions
        assert np.all((pos >= 0) & (pos < small_particles.box))

    def test_species_mass_ratio_matches_cosmology(self, small_particles):
        cosmo = Cosmology()
        dm = small_particles.mass[small_particles.species_mask(Species.DARK_MATTER)]
        ba = small_particles.mass[small_particles.species_mask(Species.BARYON)]
        assert dm[0] / ba[0] == pytest.approx(cosmo.omega_cdm / cosmo.omega_b)

    def test_total_mass_matches_mean_density(self, small_particles):
        cosmo = Cosmology()
        from repro.hacc.units import RHO_CRIT

        expected = cosmo.omega_m * RHO_CRIT * small_particles.box**3
        assert small_particles.total_mass() == pytest.approx(expected, rel=1e-10)

    def test_baryons_initialised_for_hydro(self, small_particles):
        ba = small_particles.species_mask(Species.BARYON)
        assert np.all(small_particles.u[ba] > 0)
        assert np.all(small_particles.hsml[ba] > 0)
        assert np.all(small_particles.pressure[ba] > 0)
        assert np.all(small_particles.cs[ba] > 0)

    def test_displacements_small_at_z200(self, small_particles):
        # at z=200 the universe is near-homogeneous: displacements are a
        # small fraction of the interparticle spacing
        cell = small_particles.box / 6
        # nearest lattice point distance as displacement proxy
        from repro.hacc.ic import _lattice

        dm = small_particles.positions[: 6**3]
        lattice = _lattice(6, small_particles.box, 0.25)
        d = dm - lattice
        half = small_particles.box / 2
        d = (d + half) % small_particles.box - half
        assert np.percentile(np.abs(d), 95) < cell


class TestParticleMass:
    def test_mass_resolution_invariant_under_paper_scaling(self):
        # the paper scales box size with particle count to keep the
        # mass resolution fixed (Section 3.4.2)
        m_full = particle_mass(177.0, 512, 0.26)
        m_scaled = particle_mass(177.0 * 16 / 512, 16, 0.26)
        assert m_full == pytest.approx(m_scaled)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            particle_mass(100.0, 0, 0.3)
