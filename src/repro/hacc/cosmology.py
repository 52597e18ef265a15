"""FLRW background cosmology.

Provides the scale-factor dynamics the time stepper needs: H(a), the
linear growth factor D(a) for the Zel'dovich initial conditions, and
the kick/drift integrals of the comoving KDK leapfrog.  The paper's
test problem steps from z_i = 200 to z_f = 50 in five steps
(Section 3.4.3); :meth:`Cosmology.step_schedule` produces exactly that
schedule.

The three integrals (D(a), the kick/drift factors here, and the sigma8
normalisation in :mod:`~repro.hacc.power`) are fixed-node
Gauss-Legendre rules, each on a variable in which its integrand is
analytic, so every one converges to round-off with numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from repro.hacc.units import H0_HUNITS

#: nodes of the single-panel rule for D(a), in u with a' = a u^2
_GROWTH_NODES = 48
#: widest panel of the kick/drift rule, in ln a, and its nodes
_LEAPFROG_PANEL = 0.5
_LEAPFROG_NODES = 16


@cache
def _unit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    x1: float,
    *,
    nodes: int,
    panels: int = 1,
) -> float:
    """The integral of ``f`` over [x0, x1] by a composite Gauss-Legendre rule.

    The interval is cut into ``panels`` equal panels of ``nodes`` points
    each, and ``f`` is called once, on a (panels, nodes) array of every
    node.  Exact for polynomials of degree below ``2 * nodes`` on each
    panel; on an integrand analytic near the interval the error falls
    geometrically with ``nodes``.
    """
    u, w = _unit_rule(nodes)
    h = (x1 - x0) / panels
    x = x0 + h * (np.arange(panels)[:, None] + u)
    return float(h * np.sum(w * f(x)))


@dataclass(frozen=True)
class Cosmology:
    """A flat LambdaCDM background.

    Defaults approximate the WMAP-7/Planck-like parameters used across
    the HACC simulation campaigns.
    """

    omega_m: float = 0.31
    omega_b: float = 0.049
    h: float = 0.68
    sigma8: float = 0.81
    n_s: float = 0.96

    def __post_init__(self):
        if not 0.0 < self.omega_m <= 1.0:
            raise ValueError("omega_m must be in (0, 1]")
        if not 0.0 <= self.omega_b < self.omega_m:
            raise ValueError("omega_b must be in [0, omega_m)")

    @property
    def omega_l(self) -> float:
        """Dark-energy density of the flat model."""
        return 1.0 - self.omega_m

    @property
    def omega_cdm(self) -> float:
        """Cold-dark-matter density (total matter minus baryons)."""
        return self.omega_m - self.omega_b

    # -- background ------------------------------------------------------
    @staticmethod
    def a_of_z(z: float | np.ndarray) -> float | np.ndarray:
        """Scale factor at redshift ``z``."""
        return 1.0 / (1.0 + np.asarray(z, dtype=float))

    @staticmethod
    def z_of_a(a: float | np.ndarray) -> float | np.ndarray:
        """Redshift at scale factor ``a``."""
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise ValueError("scale factor must be positive")
        return 1.0 / a - 1.0

    def E(self, a: float | np.ndarray) -> float | np.ndarray:
        """Dimensionless Hubble rate H(a)/H0 for the flat model."""
        a = np.asarray(a, dtype=float)
        return np.sqrt(self.omega_m / a**3 + self.omega_l)

    def H(self, a: float | np.ndarray) -> float | np.ndarray:
        """Hubble rate in h km/s/Mpc."""
        return H0_HUNITS * self.E(a)

    # -- linear growth -------------------------------------------------
    def growth_factor(self, a: float) -> float:
        """Linear growth factor D(a), normalised so D(1) = 1.

        Uses the standard integral form
        ``D(a) propto H(a) * integral_0^a da' / (a' H(a'))^3``, whose
        integrand ``a'^1.5 / (omega_m + omega_l a'^3)^1.5`` is not
        analytic at a' = 0.  With a' = a u^2 it becomes
        ``2 a^2.5 u^4 / (omega_m + omega_l a^3 u^6)^1.5`` on u in [0, 1],
        analytic there, and a 48-node rule is exact to round-off.
        """
        return self._growth_unnormalised(a) / self._growth_unnormalised(1.0)

    def _growth_unnormalised(self, a: float) -> float:
        if a <= 0:
            raise ValueError("scale factor must be positive")

        om, ol = self.omega_m, self.omega_l

        def integrand(u: np.ndarray) -> np.ndarray:
            return 2.0 * a**2.5 * u**4 / (om + ol * a**3 * u**6) ** 1.5

        value = gauss_legendre(integrand, 0.0, 1.0, nodes=_GROWTH_NODES)
        return float(2.5 * om * self.E(a) * value)

    def growth_rate(self, a: float) -> float:
        """Logarithmic growth rate f = dlnD/dlna (finite difference)."""
        eps = 1e-5 * a
        d_hi = self._growth_unnormalised(a + eps)
        d_lo = self._growth_unnormalised(a - eps)
        return a * (d_hi - d_lo) / (2.0 * eps) / self._growth_unnormalised(a)

    # -- leapfrog integrals ------------------------------------------------
    def drift_factor(self, a0: float, a1: float) -> float:
        """Comoving drift integral: int dt/a^2 = int da / (a^3 H)."""
        return self._leapfrog_integral(a0, a1, power=3)

    def kick_factor(self, a0: float, a1: float) -> float:
        """Comoving kick integral: int dt/a = int da / (a^2 H)."""
        return self._leapfrog_integral(a0, a1, power=2)

    def _leapfrog_integral(self, a0: float, a1: float, *, power: int) -> float:
        if a0 <= 0 or a1 <= 0:
            raise ValueError("scale factors must be positive")
        if a1 < a0:
            raise ValueError("integration requires a1 >= a0")

        # in x = ln a the integrand a^(1-power) / H is analytic within
        # pi/3 of the real axis, so panels half a unit wide converge to
        # round-off on any interval
        def integrand(x: np.ndarray) -> np.ndarray:
            a = np.exp(x)
            return a ** (1 - power) / self.H(a)

        x0, x1 = math.log(a0), math.log(a1)
        panels = max(1, math.ceil((x1 - x0) / _LEAPFROG_PANEL))
        return gauss_legendre(integrand, x0, x1, nodes=_LEAPFROG_NODES, panels=panels)

    # -- the paper's stepping schedule --------------------------------------
    def step_schedule(
        self, z_initial: float = 200.0, z_final: float = 50.0, n_steps: int = 5
    ) -> np.ndarray:
        """Scale-factor edges of an n-step run, linear in ``a``.

        HACC's outer time stepper is uniform in the scale factor; the
        default arguments give the paper's five steps from z=200 to
        z=50 (Section 3.4.3).
        """
        if z_final >= z_initial:
            raise ValueError("z_final must be below z_initial")
        if n_steps < 1:
            raise ValueError("need at least one step")
        a0 = float(self.a_of_z(z_initial))
        a1 = float(self.a_of_z(z_final))
        return np.linspace(a0, a1, n_steps + 1)
