"""The **Energy** kernel (paper timers ``upBarDu``/``upBarDuF``).

"Energy, which solves the derivative of the internal energy"
(Section 5).  The compatible form pairs exactly with the momentum
equation of :mod:`repro.hacc.sph.acceleration`:

    du_i/dt = (1/m_i) sum_j V_i V_j (P_i + Pi_ij/2) / 2
                        * (v_i - v_j) . (grad_i W^R_ij - grad_j W^R_ji)

With this pairing the pair's thermal-energy gain equals the pair's
kinetic-energy loss *identically*, so total energy is conserved to
round-off -- the strongest invariant the test suite checks on the hydro
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.acceleration import AccelerationResult
from repro.hacc.sph.pairs import PairContext


@dataclass(frozen=True)
class EnergyResult:
    """Internal-energy derivative."""

    du_dt: np.ndarray  # (n,)


def compute_energy_rate(
    ctx: PairContext,
    volume: np.ndarray,
    mass: np.ndarray,
    pressure: np.ndarray,
    velocity: np.ndarray,
    accel: AccelerationResult,
) -> EnergyResult:
    """The Energy kernel, reusing the Acceleration kernel's pairing.

    ``accel`` must come from :func:`compute_acceleration` on the *same*
    pair context: the antisymmetrised gradients and pair viscosities
    are shared state, exactly as in CRK-HACC where the two kernels read
    the same interaction lists.
    """
    volume = xp.ensure_float(volume)
    mass = xp.ensure_float(mass)
    pressure = xp.ensure_float(pressure)
    velocity = xp.ensure_float(velocity)
    if accel.delta_gw.shape != (ctx.n_pairs, 3):
        raise ValueError("acceleration result does not match the pair context")

    du_dt = xp.zeros(ctx.n)
    for rows, starts, ids in ctx.blocks():
        i, j = ctx.i[rows], ctx.j[rows]
        work = xp.rowwise_dot(velocity[i] - velocity[j], accel.delta_gw[rows])
        p_eff = pressure[i] + 0.5 * accel.visc_pi[rows]
        contrib = volume[i] * volume[j] * 0.5 * p_eff * work / mass[i]
        du_dt[ids] = xp.segment_sum(contrib, starts)
    return EnergyResult(du_dt=du_dt)
