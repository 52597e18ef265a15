"""The **Acceleration** kernel (paper timers ``upBarAc``/``upBarAcF``).

"Acceleration, which calculates the momentum derivative" (Section 5).
The CRK momentum equation uses the *antisymmetrised* corrected kernel
gradient so the pair force is equal and opposite:

    dv_i/dt = - (1/m_i) sum_j V_i V_j (P_i + P_j + Pi_ij) / 2
                          * (grad_i W^R_ij - grad_j W^R_ji)

with the Monaghan artificial-viscosity pressure Pi_ij active on
approaching pairs.  Exact momentum conservation under this pairing is a
test-suite invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.corrections import CorrectionResult, corrected_kernel_gradients
from repro.hacc.sph.pairs import PairContext

#: Monaghan viscosity parameters (standard SPH values)
VISC_ALPHA = 1.0
VISC_BETA = 2.0
VISC_EPS = 0.01


@dataclass(frozen=True)
class AccelerationResult:
    """Momentum derivative and the CFL signal speed.

    Handed to the next kernel: ``visc_pi`` and ``delta_gw``.  The
    Energy kernel must see the identical pairing -- the same viscous
    pressure and the same antisymmetrised gradient, pair for pair --
    for the pair's thermal gain to equal its kinetic loss exactly, so
    it reads them from here instead of forming them again.
    """

    dv_dt: np.ndarray        # (n, 3)
    visc_pi: np.ndarray      # (m,) per-pair viscous pressure
    delta_gw: np.ndarray     # (m, 3) per-pair antisymmetrised gradient
    max_signal_speed: float  # CFL input


def pair_viscosity(
    ctx: PairContext,
    h: np.ndarray,
    rho: np.ndarray,
    cs: np.ndarray,
    vdotx: np.ndarray,
    rows: slice = slice(None),
    *,
    alpha: float = VISC_ALPHA,
    beta: float = VISC_BETA,
) -> np.ndarray:
    """Monaghan viscous pressure Pi_ij >= 0 on the approaching pairs of
    ``rows`` (all pairs by default; ``vdotx``, their per-pair
    (v_i - v_j) . (x_i - x_j), negative)."""
    i, j = ctx.i[rows], ctx.j[rows]
    h_ij = 0.5 * (h[i] + h[j])
    r2 = ctx.r[rows] ** 2
    mu = h_ij * vdotx / (r2 + VISC_EPS * h_ij**2)
    mu = xp.where(vdotx < 0.0, mu, 0.0)  # only approaching pairs
    cs_ij = 0.5 * (cs[i] + cs[j])
    rho_ij = 0.5 * (rho[i] + rho[j])
    return rho_ij * (-alpha * cs_ij * mu + beta * mu**2)


def antisymmetric_gradients(ctx: PairContext, g: np.ndarray, rows: slice) -> np.ndarray:
    """(grad_i W^R_ij - grad_j W^R_ji) / 2 on ``rows`` (a block of
    :meth:`PairContext.blocks`), from ``g``, the whole list's per-pair
    grad_i W^R_ij.

    By :class:`PairContext`'s mirror contract grad_j W^R_ji of row k is
    grad_i W^R_ij of row ``mirror[k]``: one evaluation serves both
    sides, and since ``a - b == -(b - a)`` in floating point the result
    is antisymmetric bit for bit -- which gives the momentum equation
    its exact conservation property.
    """
    if g.shape != (ctx.n_pairs, 3):
        raise ValueError("kernel gradients do not match the pair context")
    return 0.5 * (g[rows] - xp.take(g, ctx.mirror[rows]))


def compute_acceleration(
    ctx: PairContext,
    h: np.ndarray,
    volume: np.ndarray,
    mass: np.ndarray,
    rho: np.ndarray,
    pressure: np.ndarray,
    cs: np.ndarray,
    velocity: np.ndarray,
    corr: CorrectionResult,
) -> AccelerationResult:
    """The Acceleration kernel.  The per-pair grad_i W^R_ij is evaluated
    here, block by block, before the pass that reads each row's
    mirror."""
    for name, arr in (
        ("volume", volume),
        ("mass", mass),
        ("rho", rho),
        ("pressure", pressure),
        ("cs", cs),
    ):
        if len(np.asarray(arr)) != ctx.n:
            raise ValueError(f"{name} array does not match the pair context")
    if np.asarray(velocity).shape != (ctx.n, 3):
        raise ValueError("velocity must be (n, 3)")

    grad_w = xp.empty(ctx.dx.shape)
    for rows, _starts, _ids in ctx.blocks():
        grad_w[rows] = corrected_kernel_gradients(ctx, h, corr, rows)

    visc = xp.empty(ctx.n_pairs)
    delta_gw = xp.empty(ctx.dx.shape)
    dv_dt = xp.zeros((ctx.n, 3))
    # signal speed for the CFL criterion: sound crossing + viscous signal
    max_signal = float(2.0 * xp.max(cs)) if ctx.n and not ctx.n_pairs else 0.0
    for rows, starts, ids in ctx.blocks():
        i, j = ctx.i[rows], ctx.j[rows]
        vdotx = xp.rowwise_dot(velocity[i] - velocity[j], ctx.dx[rows])
        pi = visc[rows] = pair_viscosity(ctx, h, rho, cs, vdotx, rows)
        delta = delta_gw[rows] = antisymmetric_gradients(ctx, grad_w, rows)
        p_sum = pressure[i] + pressure[j] + pi
        scale = -volume[i] * volume[j] * 0.5 * p_sum / mass[i]
        dv_dt[ids] = xp.segment_sum(scale[:, None] * delta, starts)

        r = ctx.r[rows]
        approach = xp.where(vdotx < 0, -vdotx / xp.where(r > 0, r, 1.0), 0.0)
        max_signal = xp.maximum(max_signal, xp.max(cs[i] + cs[j] + 3.0 * approach))

    return AccelerationResult(
        dv_dt=dv_dt,
        visc_pi=visc,
        delta_gw=delta_gw,
        max_signal_speed=float(max_signal),
    )
