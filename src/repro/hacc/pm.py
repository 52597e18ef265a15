"""Long-range particle-mesh gravity: the FFT Poisson solver.

HACC splits gravity into a long-range particle-mesh component solved
with a distributed FFT and a short-range particle-particle component
(Section 3.1).  The split is realised with a Gaussian filter: the mesh
force carries ``exp(-k^2 r_s^2)`` of the total, and the short-range
kernel (:mod:`repro.hacc.short_range`) supplies the complement inside a
cutoff of a few ``r_s``.

Everything here is host-side physics in the paper's accounting
("only a small fraction of time goes to host-side operations like the
3D distributed-memory FFTs", Section 3.4.4), so it does not pass
through the virtual-GPU executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.mesh import cic_deposit, cic_interpolate, fourier_grid
from repro.hacc.particles import ParticleData
from repro.hacc.units import G_NEWTON


@dataclass(frozen=True)
class PMConfig:
    """Particle-mesh solver parameters."""

    n_mesh: int = 32
    #: force-splitting scale in mesh cells (HACC uses ~1-2 cells)
    split_cells: float = 1.25

    def __post_init__(self):
        if self.n_mesh < 4:
            raise ValueError("mesh too small")
        if self.split_cells <= 0:
            raise ValueError("split scale must be positive")


class PMSolver:
    """FFT-based long-range Poisson solver on a periodic box."""

    def __init__(self, box: float, config: PMConfig | None = None):
        if box <= 0:
            raise ValueError("box must be positive")
        self.box = box
        self.config = config or PMConfig()
        self._k = fourier_grid(self.config.n_mesh, box)

    @property
    def split_scale(self) -> float:
        """Force-splitting scale r_s in Mpc/h."""
        return self.config.split_cells * self.box / self.config.n_mesh

    @property
    def cutoff(self) -> float:
        """Short-range cutoff: 4.5 r_s.

        The Gaussian-filtered complement decays as exp(-r^2 / 4 r_s^2);
        at 4.5 r_s the truncated force fraction is below 2%.
        """
        return 4.5 * self.split_scale

    # ------------------------------------------------------------------
    def density_contrast(self, particles: ParticleData) -> np.ndarray:
        """CIC mass deposit converted to density contrast delta."""
        n_mesh = self.config.n_mesh
        mesh = cic_deposit(
            particles.positions, particles.mass, n_mesh, self.box
        )
        cell_volume = (self.box / n_mesh) ** 3
        rho = mesh / cell_volume
        rho_bar = particles.total_mass() / self.box**3
        if rho_bar <= 0:
            raise ValueError("cannot form density contrast with zero mass")
        return rho / rho_bar - 1.0

    def potential_k(self, delta_k: np.ndarray, rho_bar: float) -> np.ndarray:
        """Filtered potential in k-space: -4 pi G rho_bar delta_k / k^2
        with the long-range Gaussian filter applied."""
        _kx, _ky, _kz, k2 = self._k
        rs = self.split_scale
        k2_safe = xp.where(k2 == 0.0, 1.0, k2)
        phi_k = -4.0 * np.pi * G_NEWTON * rho_bar * delta_k / k2_safe
        phi_k *= xp.exp(-k2 * rs**2)
        phi_k = xp.where(k2 == 0.0, 0.0, phi_k)
        return phi_k

    def accelerations(self, particles: ParticleData) -> np.ndarray:
        """(n, 3) long-range comoving accelerations at particle positions."""
        n_mesh = self.config.n_mesh
        delta = self.density_contrast(particles)
        delta_k = xp.rfftn(delta)
        rho_bar = particles.total_mass() / self.box**3
        phi_k = self.potential_k(delta_k, rho_bar)

        kx, ky, kz, _k2 = self._k
        acc = xp.empty((len(particles), 3))
        pos = particles.positions
        for axis, kcomp in enumerate((kx, ky, kz)):
            # force = -grad phi -> -i k phi in k-space
            force_mesh = xp.irfftn(-1j * kcomp * phi_k, s=(n_mesh,) * 3, axes=(0, 1, 2))
            acc[:, axis] = cic_interpolate(force_mesh, pos, self.box)
        return acc
