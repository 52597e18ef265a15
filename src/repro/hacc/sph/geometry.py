"""The **Geometry** kernel (paper timer ``upGeo``).

"Geometry, which measures the volumes of gas particles" (Section 5).
The CRK volume is the inverse number density,

    V_i = 1 / ( W(0, h_i) + sum_j W(r_ij, h_i) ),

and the smoothing length is relaxed toward ``eta * V_i^(1/3)`` so each
particle keeps a roughly constant neighbour count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.kernels_math import kernel_self_value
from repro.hacc.sph.pairs import PairContext
from repro.hacc.units import SPH_ETA

#: under-relaxation factor of the smoothing-length update; a full
#: Newton update can oscillate for irregular particle distributions
H_RELAXATION = 0.5


@dataclass(frozen=True)
class GeometryResult:
    """Output of the Geometry kernel."""

    volume: np.ndarray
    number_density: np.ndarray
    h_new: np.ndarray


def compute_geometry(
    ctx: PairContext,
    h: np.ndarray,
    *,
    eta: float = SPH_ETA,
    relax: float = H_RELAXATION,
) -> GeometryResult:
    """Per-particle volumes and smoothing-length update.

    ``ctx`` must be built over the gas particles only (dark matter does
    not participate in hydrodynamics).
    """
    h = xp.ensure_float(h)
    if len(h) != ctx.n:
        raise ValueError("h array does not match the pair context")
    number_density = xp.zeros(ctx.n)
    for rows, starts, ids in ctx.blocks():
        number_density[ids] = xp.segment_sum(ctx.kernel_values(h, rows), starts)
    number_density += kernel_self_value(h)
    if xp.any(number_density <= 0):
        raise FloatingPointError("non-positive number density")
    volume = 1.0 / number_density
    h_target = eta * xp.cbrt(volume)
    h_new = h + relax * (h_target - h)
    return GeometryResult(volume=volume, number_density=number_density, h_new=h_new)
