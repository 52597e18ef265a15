"""Unit system of the mini-app.

HACC works in comoving coordinates with lengths in Mpc/h, masses in
Msun/h and internal "code" velocities; we use a compatible convention
and keep Newton's constant in those units as a single definition point.
Every module that needs dimensional constants imports them from here.
"""

from __future__ import annotations

#: Newton's constant in (Mpc/h) (km/s)^2 / (Msun/h)
G_NEWTON = 4.30091e-9

#: Hubble constant in h km/s/Mpc -- by construction 100 in h-units
H0_HUNITS = 100.0

#: critical density today in (Msun/h) / (Mpc/h)^3
#: rho_c = 3 H0^2 / (8 pi G)
RHO_CRIT = 3.0 * H0_HUNITS**2 / (8.0 * 3.141592653589793 * G_NEWTON)

#: adiabatic index of the baryonic ideal gas
GAMMA_ADIABATIC = 5.0 / 3.0

#: CRK-SPH smoothing-length scaling: h = ETA * (volume)^(1/3)
SPH_ETA = 1.3


def particle_mass(box_mpc_h: float, n_per_side: int, omega: float) -> float:
    """Mass of one particle of a species filling ``omega`` of critical.

    The paper scales its test problem to keep the same *mass
    resolution* as the Frontier FOM problems (Section 3.4.2); tests pin
    this function against that invariance.
    """
    if n_per_side <= 0:
        raise ValueError("n_per_side must be positive")
    total_mass = omega * RHO_CRIT * box_mpc_h**3
    return total_mass / float(n_per_side) ** 3
