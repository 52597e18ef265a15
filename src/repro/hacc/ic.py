"""Zel'dovich initial conditions.

HACC starts its simulations from first-order Lagrangian perturbation
theory (Zel'dovich) displacements of a regular grid.  We generate a
Gaussian random density field with the linear P(k) at the starting
redshift, convert it to a displacement field in Fourier space
(``psi_k = i k delta_k / k^2``), and displace two interleaved particle
grids: dark matter on cell centres and baryons offset by half a cell,
mirroring CRK-HACC's "2x" particle counts (Section 3.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hacc.confighash import config_hash
from repro.hacc.cosmology import Cosmology
from repro.hacc.mesh import fourier_grid
from repro.hacc.particles import ParticleData, Species
from repro.hacc.power import PowerSpectrum
from repro.hacc.units import GAMMA_ADIABATIC, SPH_ETA, particle_mass


@dataclass(frozen=True)
class ICConfig:
    """Initial-condition parameters for the mini-app test problem."""

    n_per_side: int = 16
    box: float = 177.0 * 16 / 512  # paper box scaled to grid (same mass res.)
    z_initial: float = 200.0
    seed: int = 2023
    #: initial baryon internal energy (code units); small and uniform,
    #: the adiabatic early universe is cold
    u_initial: float = 1.0e-4
    #: Lagrangian perturbation order: 1 = Zel'dovich, 2 = 2LPT.  The
    #: second-order displacement removes the transients Zel'dovich
    #: starts leave behind; at z = 200 it is a small correction, which
    #: the tests verify.
    lpt_order: int = 1

    def __post_init__(self):
        if self.n_per_side < 2:
            raise ValueError("need at least 2 particles per side")
        if self.box <= 0:
            raise ValueError("box must be positive")
        if self.lpt_order not in (1, 2):
            raise ValueError("lpt_order must be 1 or 2")

    def content_hash(self) -> str:
        """Canonical content key of the particle load this config
        generates (the service caches generated ICs under it)."""
        return config_hash(self)


def _zero_nyquist(field_k: np.ndarray, n: int) -> np.ndarray:
    """Zero the Nyquist planes of an rfft-layout field (in place).

    The Nyquist modes of a real FFT cannot represent the phase of
    ``i k X`` faithfully (they are constrained to be real), which would
    leave spurious curl in gradient fields; standard IC generators drop
    them.
    """
    if n % 2 == 0:
        half = n // 2
        field_k[half, :, :] = 0.0
        field_k[:, half, :] = 0.0
        field_k[:, :, -1] = 0.0
    return field_k


def displacement_field(
    config: ICConfig, cosmology: Cosmology, power: PowerSpectrum
) -> tuple[np.ndarray, np.ndarray]:
    """Zel'dovich displacement and velocity fields on the IC grid.

    Returns ``(psi, vel)`` with shape (n, n, n, 3): the comoving
    displacement and the comoving peculiar velocity fields at
    ``z_initial``.
    """
    n = config.n_per_side
    box = config.box
    rng = np.random.default_rng(config.seed)
    a = float(cosmology.a_of_z(config.z_initial))
    d = cosmology.growth_factor(a)
    f = cosmology.growth_rate(a)

    # White noise -> delta_k with the linear power at z_initial.
    noise = rng.standard_normal((n, n, n))
    delta_k = np.fft.rfftn(noise)
    kx, ky, kz, k2 = fourier_grid(n, box)
    k = np.sqrt(k2)
    pk = power(k.ravel()).reshape(k.shape) * d**2
    volume = box**3
    # Convention: <|delta_k|^2> = P(k) * N^2 / V for numpy's FFT scaling.
    amplitude = np.sqrt(pk * n**6 / volume) / n**1.5
    delta_k *= amplitude
    delta_k[0, 0, 0] = 0.0
    _zero_nyquist(delta_k, n)

    k2_safe = np.where(k2 == 0.0, 1.0, k2)
    psi = np.empty((n, n, n, 3))
    for axis, kcomp in enumerate((kx, ky, kz)):
        psi_k = 1j * kcomp / k2_safe * delta_k
        psi[..., axis] = np.fft.irfftn(psi_k, s=(n, n, n), axes=(0, 1, 2))

    # Zel'dovich velocities in the canonical-momentum convention the
    # KDK stepper integrates (p = a^2 dx/dt, the GADGET convention that
    # pairs with kick = int dt/a and drift = int dt/a^2):
    # dx/dt = H f psi  ->  p = a^2 H f psi.
    vel = psi * (a * a * f * cosmology.H(a))
    return psi, vel


def second_order_displacement(
    psi1: np.ndarray, box: float
) -> np.ndarray:
    """2LPT displacement from a first-order displacement field.

    With ``phi`` the first-order potential (``psi1 = -grad phi``), the
    second-order source is

        S = sum_{i<j} (phi_,ii phi_,jj - phi_,ij^2)

    and the displacement solves ``psi2 = (3/7) grad (laplace^-1 S)``
    for an Einstein-de Sitter background (the standard approximation;
    the 3/7 factor is folded in here so callers simply add
    ``psi1 + psi2``).  A single plane wave has S = 0 identically --
    the property the tests pin.
    """
    n = psi1.shape[0]
    if psi1.shape != (n, n, n, 3):
        raise ValueError("psi1 must be (n, n, n, 3)")
    kx, ky, kz, k2 = fourier_grid(n, box)
    k2_safe = np.where(k2 == 0.0, 1.0, k2)
    kvec = (kx, ky, kz)

    # phi_k from psi1: psi1_k = -i k phi_k  ->  phi_k = div(psi1)_k / k^2
    div_k = np.zeros(np.fft.rfftn(psi1[..., 0]).shape, dtype=complex)
    for axis in range(3):
        div_k += 1j * kvec[axis] * np.fft.rfftn(psi1[..., axis])
    phi_k = -div_k / k2_safe
    phi_k = np.where(k2 == 0.0, 0.0, phi_k)

    # second derivatives phi_,ij
    def phi_ij(i: int, j: int) -> np.ndarray:
        return np.fft.irfftn(
            -kvec[i] * kvec[j] * phi_k, s=(n, n, n), axes=(0, 1, 2)
        )

    source = np.zeros((n, n, n))
    for i in range(3):
        for j in range(i + 1, 3):
            source += phi_ij(i, i) * phi_ij(j, j) - phi_ij(i, j) ** 2

    source_k = np.fft.rfftn(source)
    _zero_nyquist(source_k, n)
    psi2 = np.empty_like(psi1)
    for axis in range(3):
        psi2_k = 1j * kvec[axis] / k2_safe * source_k
        psi2_k = np.where(k2 == 0.0, 0.0, psi2_k)
        psi2[..., axis] = (3.0 / 7.0) * np.fft.irfftn(
            psi2_k, s=(n, n, n), axes=(0, 1, 2)
        )
    return psi2


def _lattice(n: int, box: float, offset: float) -> np.ndarray:
    """Regular (n^3, 3) lattice with the given half-cell offset."""
    cell = box / n
    coords = (np.arange(n) + offset) * cell
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def zeldovich_ics(
    config: ICConfig | None = None,
    cosmology: Cosmology | None = None,
    power: PowerSpectrum | None = None,
) -> ParticleData:
    """Generate the 2x n^3 dark-matter + baryon particle load."""
    config = config or ICConfig()
    cosmology = cosmology or Cosmology()
    power = power or PowerSpectrum(cosmology)

    n = config.n_per_side
    box = config.box
    psi, vel = displacement_field(config, cosmology, power)
    if config.lpt_order == 2:
        a = float(cosmology.a_of_z(config.z_initial))
        f1 = cosmology.growth_rate(a)
        psi2 = second_order_displacement(psi, box)
        psi = psi + psi2
        # second-order velocities: f2 ~ 2 f1 in matter domination
        vel = vel + psi2 * (a * a * 2.0 * f1 * cosmology.H(a))
    psi_flat = psi.reshape(-1, 3)
    vel_flat = vel.reshape(-1, 3)

    n3 = n**3
    data = ParticleData.allocate(2 * n3, box)

    # Dark matter on cell centres, baryons offset by half a cell; both
    # sample the same displacement field (adequate at z=200, where the
    # species have not yet decoupled dynamically).
    dm_pos = _lattice(n, box, 0.25) + psi_flat
    ba_pos = _lattice(n, box, 0.75) + psi_flat

    pos = np.vstack([dm_pos, ba_pos]) % box
    velocity = np.vstack([vel_flat, vel_flat])
    data.set_positions(pos)
    data.set_velocities(velocity)

    data.arrays["species"][:n3] = int(Species.DARK_MATTER)
    data.arrays["species"][n3:] = int(Species.BARYON)
    data.arrays["mass"][:n3] = particle_mass(box, n, cosmology.omega_cdm)
    data.arrays["mass"][n3:] = particle_mass(box, n, cosmology.omega_b)

    # Baryon thermodynamic state: cold uniform gas.
    baryons = data.species_mask(Species.BARYON)
    cell = box / n
    mean_rho = data.arrays["mass"][n3] / cell**3
    data.arrays["u"][baryons] = config.u_initial
    data.arrays["rho"][baryons] = mean_rho
    data.arrays["volume"][baryons] = cell**3
    data.arrays["hsml"][baryons] = SPH_ETA * cell
    data.arrays["pressure"][baryons] = (
        (GAMMA_ADIABATIC - 1.0) * mean_rho * config.u_initial
    )
    data.arrays["cs"][baryons] = np.sqrt(
        GAMMA_ADIABATIC * (GAMMA_ADIABATIC - 1.0) * config.u_initial
    )
    data.validate()
    return data
