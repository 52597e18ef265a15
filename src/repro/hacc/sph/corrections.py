"""The **Corrections** kernel (paper timer ``upCor``).

"Corrections, which computes the reproducing kernel coefficients of the
higher order SPH solver" (Section 5).  The linear-order CRK correction
replaces W_ij with

    W^R_ij = A_i * (1 + B_i . (x_i - x_j)) * W_ij

where A_i (scalar) and B_i (vector) are chosen so the corrected kernel
*reproduces* constant and linear fields exactly:

    sum_j V_j W^R_ij = 1       and       sum_j V_j (x_j - x_i) W^R_ij = 0.

Writing the geometric moments

    m0_i = sum_j V_j W_ij            (including the self term)
    m1_i = sum_j V_j (x_j - x_i) W_ij
    m2_i = sum_j V_j (x_j - x_i)(x_j - x_i)^T W_ij

the solution is ``B_i = m2_i^{-1} m1_i`` and
``A_i = 1 / (m0_i - m1_i . B_i)``.  The reproducing conditions are the
kernel's correctness contract and are property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.sph.kernels_math import kernel_self_value
from repro.hacc.sph.pairs import PairContext

#: Tikhonov regularisation of m2 relative to its trace; keeps the 3x3
#: solves stable for particles with thin/degenerate neighbourhoods
M2_REGULARISATION = 1.0e-8


@dataclass(frozen=True)
class CorrectionResult:
    """CRK coefficients, their spatial gradients, and the raw moments.

    The coefficient *gradients* (grad_a, grad_b) are what make the
    corrected kernel's difference-form gradient estimates exact for
    linear fields; computing them is the bulk of the Corrections
    kernel's arithmetic (the "higher order SPH solver" coefficients of
    Section 5).
    """

    a: np.ndarray        # (n,)
    b: np.ndarray        # (n, 3)
    m0: np.ndarray       # (n,)
    m1: np.ndarray       # (n, 3)
    m2: np.ndarray       # (n, 3, 3)
    #: dA/dx_gamma, shape (n, 3)
    grad_a: np.ndarray
    #: dB_alpha/dx_gamma, shape (n, 3, 3) indexed [particle, alpha, gamma]
    grad_b: np.ndarray


def _moment_sums(
    ctx: PairContext, h: np.ndarray, volume: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The six pair sums (m0, m1, m2, dm0, dm1, dm2) of the moments and
    their gradients, in one pass over the pair blocks.

    With ``dji = x_j - x_i`` and the uncorrected kernel's ``W`` and
    ``dW`` (its gradient with respect to x_i):

        m0 = sum_j V_j W                 m1 = sum_j V_j dji W
        m2 = sum_j V_j dji dji^T W       dm0 = sum_j V_j dW
        dm1 = sum_j V_j dji dW^T         dm2 = sum_j V_j dji dji dW

    -- the pair parts only; :func:`compute_corrections` adds the self
    term and the product rule's delta-terms per particle.  Each term is
    reduced as it is formed: copying the six into one (rows, 52) array
    for a single ``segment_sum`` measured 30 % slower (5 to 12 particles
    per side, x86-64 Xeon).
    """
    n = ctx.n
    m0, m1, m2 = xp.zeros(n), xp.zeros((n, 3)), xp.zeros((n, 3, 3))
    dm0, dm1, dm2 = xp.zeros((n, 3)), xp.zeros((n, 3, 3)), xp.zeros((n, 3, 3, 3))
    for rows, starts, ids in ctx.blocks():
        vj = volume[ctx.j[rows]]
        # x_j - x_i = -dx  (ctx.dx stores x_i - x_j)
        dji = -ctx.dx[rows]
        vw = vj * ctx.kernel_values(h, rows)
        vgw = vj[:, None] * ctx.kernel_gradients(h, rows)
        outer = dji[:, :, None] * dji[:, None, :]
        dgw = dji[:, :, None] * vgw[:, None, :]
        m0[ids] = xp.segment_sum(vw, starts)
        m1[ids] = xp.segment_sum(vw[:, None] * dji, starts)
        m2[ids] = xp.segment_sum(vw[:, None, None] * outer, starts)
        dm0[ids] = xp.segment_sum(vgw, starts)
        dm1[ids] = xp.segment_sum(dgw, starts)
        dm2[ids] = xp.segment_sum(dji[:, :, None, None] * dgw[:, None, :, :], starts)
    return m0, m1, m2, dm0, dm1, dm2


def _regularised(m2: np.ndarray) -> np.ndarray:
    """m2 plus ``M2_REGULARISATION`` times its trace on the diagonal."""
    reg = M2_REGULARISATION * xp.maximum(xp.trace(m2), 1e-300)
    return m2 + reg[:, None, None] * xp.eye(3, dtype=m2.dtype)[None, :, :]


def solve_coefficients(
    m0: np.ndarray, m1: np.ndarray, m2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for (A, B) from the moments, with regularised 3x3 solves.

    Falls back to the zeroth-order correction (B = 0, A = 1/m0) for
    particles whose m2 is numerically singular, which reproduces
    constants but not linear fields -- the same graceful degradation
    production CRK codes use near pathological geometries.
    """
    n = len(m0)
    m2_reg = _regularised(m2)
    b = xp.zeros((n, 3), dtype=m1.dtype)
    try:
        b = xp.solve(m2_reg, m1[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # per-particle fallback
        for k in range(n):
            try:
                b[k] = np.linalg.solve(m2_reg[k], m1[k])
            except np.linalg.LinAlgError:
                b[k] = 0.0
    denom = m0 - xp.rowwise_dot(m1, b)
    bad = ~xp.isfinite(denom) | (xp.abs(denom) < 1e-12 * xp.abs(m0))
    if xp.any(bad):
        b[bad] = 0.0
        denom = xp.where(bad, m0, denom)
    a = 1.0 / denom
    return a, b


def solve_coefficient_gradients(
    m0: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    dm0: np.ndarray,
    dm1: np.ndarray,
    dm2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of (A, B) by implicit differentiation of the solves.

    From ``m2 B = m1``:  ``dB = m2^-1 (dm1 - dm2 . B)``.
    From ``A (m0 - B . m1) = 1``:
        ``dA = -A^2 (dm0 - dB . m1 - B . dm1)``.
    """
    # rhs[p, a, g] = dm1[p, a, g] - sum_b dm2[p, a, b, g] B[p, b]
    rhs = dm1 - xp.einsum("pabg,pb->pag", dm2, b)
    try:
        grad_b = xp.solve(_regularised(m2), rhs)
    except np.linalg.LinAlgError:
        grad_b = xp.zeros_like(rhs)

    # dD[p, g] = dm0 - sum_a (grad_b[a, g] m1_a + B_a dm1[a, g])
    d_denom = (
        dm0
        - xp.einsum("pag,pa->pg", grad_b, m1)
        - xp.einsum("pa,pag->pg", b, dm1)
    )
    grad_a = -(a**2)[:, None] * d_denom
    return grad_a, grad_b


def compute_corrections(
    ctx: PairContext, h: np.ndarray, volume: np.ndarray
) -> CorrectionResult:
    """The Corrections kernel: moments, coefficients, and their
    gradients.

    The moment gradients with respect to x_i (``d dji / d x_i = -I``)
    are the pair sums of :func:`_moment_sums` minus the product rule's
    ``-I W`` terms, which sum to m0 / m1 (self term included: its
    ``dji`` and ``dW`` vanish, its ``-delta W`` is in m0) and so enter
    per particle:

        dm1[p, a, g]    = sum_j V_j dji_a dW_g - delta_ag m0
        dm2[p, a, b, g] = sum_j V_j dji_a dji_b dW_g
                          - (delta_ag m1_b + delta_bg m1_a)
    """
    volume = xp.ensure_float(volume)
    if len(volume) != ctx.n:
        raise ValueError("volume array does not match the pair context")
    m0, m1, m2, dm0, dm1, dm2 = _moment_sums(ctx, h, volume)
    m0 += volume * kernel_self_value(h)
    a, b = solve_coefficients(m0, m1, m2)
    eye = xp.eye(3, dtype=dm1.dtype)
    dm1 -= eye * m0[:, None, None]
    dm2 -= eye[:, None, :] * m1[:, None, :, None] + eye[None, :, :] * m1[:, :, None, None]
    grad_a, grad_b = solve_coefficient_gradients(m0, m1, m2, a, b, dm0, dm1, dm2)
    return CorrectionResult(
        a=a, b=b, m0=m0, m1=m1, m2=m2, grad_a=grad_a, grad_b=grad_b
    )


def corrected_kernel_gradients(
    ctx: PairContext, h: np.ndarray, corr: CorrectionResult, rows: slice = slice(None)
) -> np.ndarray:
    """The full gradient grad_i W^R_ij on ``rows`` (a block of
    :meth:`PairContext.blocks`; all pairs by default), including the
    grad-A / grad-B terms.  The one evaluation of grad W^R.

    With ``d = x_i - x_j`` and ``lin = 1 + B_i . d``:

        grad_g W^R = (dA_g lin + A ((dB . d)_g + B_g)) W + A lin grad_g W

    Carrying the coefficient gradients is what makes the corrected
    difference-form gradient estimates *exact* for affine fields -- the
    property the test suite pins and the reason the Corrections kernel
    is one of the paper's five arithmetic hotspots.
    """
    i, d = ctx.i[rows], ctx.dx[rows]
    a = corr.a[i]
    b = corr.b[i]
    lin = 1.0 + xp.rowwise_dot(b, d)
    db_dot_d = xp.einsum("pag,pa->pg", corr.grad_b[i], d)
    coeff_term = corr.grad_a[i] * lin[:, None] + a[:, None] * (db_dot_d + b)
    return (
        coeff_term * ctx.kernel_values(h, rows)[:, None]
        + (a * lin)[:, None] * ctx.kernel_gradients(h, rows)
    )
