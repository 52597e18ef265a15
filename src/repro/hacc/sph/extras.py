"""The **Extras** kernel (paper timer ``upBarEx``).

"Extras, which evaluates the density and state gradients" (Section 5).
With the corrected kernel gradient, any field F has the consistent
difference-form gradient estimate

    grad F_i = sum_j V_j (F_j - F_i) grad_i W^R_ij

which is exact for linear fields when the CRK reproducing conditions
hold.  The kernel evaluates the density, the velocity gradient tensor
(whose trace, the velocity divergence, feeds the artificial-viscosity
limiter and the CFL criterion), and the pressure gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.corrections import CorrectionResult, corrected_kernel_gradients
from repro.hacc.sph.pairs import PairContext


@dataclass(frozen=True)
class ExtrasResult:
    """Density and state gradients.

    Handed to the next kernel: ``grad_w``, the per-pair grad_i W^R_ij
    every gradient estimate here was formed with.  It depends on
    ``(ctx, h, corr)`` alone, so an Acceleration evaluation on the same
    three (the first hydro pass of a step) takes it instead of
    evaluating it again; the post-drift pass has other pairs and
    evaluates its own.
    """

    rho: np.ndarray        # (n,)
    grad_rho: np.ndarray   # (n, 3)
    grad_v: np.ndarray     # (n, 3, 3); grad_v[p, a, b] = d v_a / d x_b
    div_v: np.ndarray      # (n,)
    grad_p: np.ndarray     # (n, 3)
    grad_w: np.ndarray     # (m, 3) per-pair corrected kernel gradient


def compute_extras(
    ctx: PairContext,
    h: np.ndarray,
    volume: np.ndarray,
    mass: np.ndarray,
    velocity: np.ndarray,
    pressure: np.ndarray,
    corr: CorrectionResult,
) -> ExtrasResult:
    """The Extras kernel on the gas particle set."""
    volume = xp.ensure_float(volume)
    mass = xp.ensure_float(mass)
    velocity = xp.ensure_float(velocity)
    pressure = xp.ensure_float(pressure)
    for name, arr in (("volume", volume), ("mass", mass), ("pressure", pressure)):
        if len(arr) != ctx.n:
            raise ValueError(f"{name} array does not match the pair context")
    if velocity.shape != (ctx.n, 3):
        raise ValueError("velocity must be (n, 3)")

    # CRK density: the volume already encodes the local number density,
    # so the consistent mass density is m_i / V_i.
    if xp.any(volume <= 0):
        raise FloatingPointError("non-positive volumes")
    rho = mass / volume

    grad_w = xp.empty(ctx.dx.shape)
    grad_rho, grad_p = xp.zeros((ctx.n, 3)), xp.zeros((ctx.n, 3))
    grad_v = xp.zeros((ctx.n, 3, 3))
    for rows, starts, ids in ctx.blocks():
        i, j = ctx.i[rows], ctx.j[rows]
        gw = grad_w[rows] = corrected_kernel_gradients(ctx, h, corr, rows)
        vj = volume[j]
        grad_rho[ids] = xp.segment_sum((vj * (rho[j] - rho[i]))[:, None] * gw, starts)
        # vector field: outer product (F_j - F_i)_a * gw_b
        diff = velocity[j] - velocity[i]
        grad_v[ids] = xp.segment_sum(vj[:, None, None] * diff[:, :, None] * gw[:, None, :], starts)
        grad_p[ids] = xp.segment_sum((vj * (pressure[j] - pressure[i]))[:, None] * gw, starts)

    return ExtrasResult(
        rho=rho,
        grad_rho=grad_rho,
        grad_v=grad_v,
        div_v=xp.trace(grad_v),
        grad_p=grad_p,
        grad_w=grad_w,
    )
