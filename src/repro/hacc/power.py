"""Linear matter power spectrum.

A BBKS-style transfer function is plenty for the mini-app: the paper's
experiments run in the near-linear regime (z = 200 to 50), where only
the broad shape of P(k) matters for generating a representative
particle distribution.  The normalisation is fixed through sigma8 by
the standard top-hat variance integral, a composite Gauss-Legendre rule
in ln k that converges to round-off.
"""

from __future__ import annotations

import numpy as np

from repro.hacc.cosmology import Cosmology, gauss_legendre

#: the sigma8 rule: equal panels in ln k over [1e-5, 50] h/Mpc, each of
#: as many nodes; the window's oscillations at high k set the count
_SIGMA8_PANELS = 128
_SIGMA8_NODES = 32


def bbks_transfer(k: np.ndarray, cosmology: Cosmology) -> np.ndarray:
    """BBKS (1986) CDM transfer function with the Sugiyama (1995)
    baryon-corrected shape parameter.

    ``k`` is in h/Mpc.
    """
    k = np.asarray(k, dtype=float)
    gamma = cosmology.omega_m * cosmology.h * np.exp(
        -cosmology.omega_b * (1.0 + np.sqrt(2.0 * cosmology.h) / cosmology.omega_m)
    )
    q = k / gamma * cosmology.h  # BBKS q uses k in Mpc^-1 / (Gamma h)
    q = np.where(q == 0.0, 1e-30, q)
    t = (
        np.log(1.0 + 2.34 * q)
        / (2.34 * q)
        * (1.0 + 3.89 * q + (16.1 * q) ** 2 + (5.46 * q) ** 3 + (6.71 * q) ** 4)
        ** -0.25
    )
    return np.where(np.asarray(k) == 0.0, 1.0, t)


def eisenstein_hu_transfer(k: np.ndarray, cosmology: Cosmology) -> np.ndarray:
    """Eisenstein & Hu (1998) zero-baryon ("no-wiggle") transfer function.

    More accurate than BBKS around the baryon-suppression scale; the
    production HACC campaigns use CAMB-class inputs, and this fit is
    the standard offline stand-in.  ``k`` in h/Mpc.
    """
    k = np.asarray(k, dtype=float)
    h = cosmology.h
    om = cosmology.omega_m
    ob = cosmology.omega_b
    theta = 2.728 / 2.7  # CMB temperature in units of 2.7 K

    omh2 = om * h * h
    obh2 = ob * h * h
    fb = ob / om

    # sound horizon (EH98 eq. 26) and the alpha_Gamma shape correction
    s = 44.5 * np.log(9.83 / omh2) / np.sqrt(1.0 + 10.0 * obh2**0.75)
    alpha = 1.0 - 0.328 * np.log(431.0 * omh2) * fb + 0.38 * np.log(
        22.3 * omh2
    ) * fb**2

    k_mpc = k * h  # EH98 works in Mpc^-1
    gamma_eff = om * h * (
        alpha + (1.0 - alpha) / (1.0 + (0.43 * k_mpc * s) ** 4)
    )
    q = k_mpc * theta**2 / np.maximum(gamma_eff * h, 1e-30)
    L = np.log(2.0 * np.e + 1.8 * q)
    C = 14.2 + 731.0 / (1.0 + 62.5 * q)
    t = L / (L + C * q * q)
    return np.where(k == 0.0, 1.0, t)


#: available transfer-function fits
TRANSFER_FUNCTIONS = {
    "bbks": bbks_transfer,
    "eisenstein-hu": eisenstein_hu_transfer,
}


class PowerSpectrum:
    """Linear matter P(k) at z = 0, normalised to sigma8.

    ``transfer`` selects the fitting formula: ``"bbks"`` (default, the
    classic CDM shape) or ``"eisenstein-hu"`` (the 1998 no-wiggle fit
    with the baryon-suppression scale).
    """

    def __init__(
        self, cosmology: Cosmology | None = None, *, transfer: str = "bbks"
    ):
        self.cosmology = cosmology or Cosmology()
        if transfer not in TRANSFER_FUNCTIONS:
            raise ValueError(
                f"unknown transfer {transfer!r}; "
                f"choose from {sorted(TRANSFER_FUNCTIONS)}"
            )
        self.transfer_name = transfer
        self._transfer = TRANSFER_FUNCTIONS[transfer]
        self._amplitude = 1.0
        self._amplitude = self._normalise()

    def _unnormalised(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        t = self._transfer(k, self.cosmology)
        return np.where(k > 0.0, k**self.cosmology.n_s * t**2, 0.0)

    def _normalise(self) -> float:
        """Fix the amplitude so sigma(8 Mpc/h) = sigma8."""

        def integrand(lnk: np.ndarray) -> np.ndarray:
            k = np.exp(lnk)
            x = 8.0 * k
            w = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3
            return self._unnormalised(k) * w**2 * k**3

        var = gauss_legendre(
            integrand,
            np.log(1e-5),
            np.log(50.0),
            nodes=_SIGMA8_NODES,
            panels=_SIGMA8_PANELS,
        )
        var /= 2.0 * np.pi**2
        if var <= 0:
            raise RuntimeError("power-spectrum normalisation failed")
        return self.cosmology.sigma8**2 / var

    def __call__(self, k: np.ndarray, z: float = 0.0) -> np.ndarray:
        """P(k) in (Mpc/h)^3 at redshift ``z``."""
        pk = self._amplitude * self._unnormalised(k)
        if z != 0.0:
            a = self.cosmology.a_of_z(z)
            pk = pk * self.cosmology.growth_factor(float(a)) ** 2
        return pk
