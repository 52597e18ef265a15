"""The **Extras** kernel (paper timer ``upBarEx``).

"Extras, which evaluates the density and state gradients" (Section 5).
Here it evaluates what the step reads: the CRK density rho = m / V.

CRK-SPH forms the state gradients, in the difference form
sum_j V_j (F_j - F_i) grad_i W^R_ij, for its viscosity limiter.  This
viscosity has no limiter, and the CFL criterion reads Acceleration's
signal speed, not grad . v, so nothing here would read them; a limiter
adds back the velocity gradient it reads.  The driver still records
the launch with its pair count, and the analysis side's ``upBarEx``
kernel spec still prices the paper's kernel, gradients included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.pairs import PairContext


@dataclass(frozen=True)
class ExtrasResult:
    """The CRK density."""

    rho: np.ndarray  # (n,)


def compute_extras(ctx: PairContext, volume: np.ndarray, mass: np.ndarray) -> ExtrasResult:
    """The Extras kernel on the gas particle set."""
    volume = xp.ensure_float(volume)
    mass = xp.ensure_float(mass)
    for name, arr in (("volume", volume), ("mass", mass)):
        if len(arr) != ctx.n:
            raise ValueError(f"{name} array does not match the pair context")

    # CRK density: the volume already encodes the local number density,
    # so the consistent mass density is m_i / V_i.
    if xp.any(volume <= 0):
        raise FloatingPointError("non-positive volumes")
    return ExtrasResult(rho=mass / volume)
