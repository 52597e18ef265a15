"""Ideal-gas equation of state for the adiabatic mode.

CRK-HACC's adiabatic runs evolve a non-radiative ideal gas:
``P = (gamma - 1) rho u`` with ``gamma = 5/3``.
"""

from __future__ import annotations

import numpy as np

from repro.hacc.units import GAMMA_ADIABATIC


def pressure(rho: np.ndarray, u: np.ndarray, gamma: float = GAMMA_ADIABATIC) -> np.ndarray:
    """Gas pressure from density and specific internal energy.

    A negative ``u`` gives zero pressure, so the sound speed stays finite
    on a state the health judge then refuses: its
    ``sim.health.thermo_violations`` detector counts ``u < 0`` as FATAL.
    The driver itself writes ``u`` unfloored.
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return (gamma - 1.0) * rho * np.maximum(u, 0.0)


def sound_speed(rho: np.ndarray, u: np.ndarray, gamma: float = GAMMA_ADIABATIC) -> np.ndarray:
    """Adiabatic sound speed c_s = sqrt(gamma P / rho)."""
    p = pressure(rho, u, gamma)
    rho = np.asarray(rho, dtype=np.float64)
    safe_rho = np.where(rho > 0, rho, 1.0)
    cs = np.sqrt(gamma * p / safe_rho)
    return np.where(rho > 0, cs, 0.0)


def update_thermodynamics(particles, gamma: float = GAMMA_ADIABATIC) -> None:
    """Refresh pressure and sound speed of the baryon particles in place."""
    from repro.hacc.particles import Species

    mask = particles.species_mask(Species.BARYON)
    rho = particles.rho[mask]
    u = particles.u[mask]
    particles.pressure[mask] = pressure(rho, u, gamma)
    particles.cs[mask] = sound_speed(rho, u, gamma)
