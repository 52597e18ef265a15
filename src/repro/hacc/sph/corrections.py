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


def compute_moments(
    ctx: PairContext, h: np.ndarray, volume: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric moments m0, m1, m2 (self term included in m0)."""
    vw = volume[ctx.j] * ctx.kernel_values(h)
    m0 = ctx.scatter_sum(vw) + volume * kernel_self_value(h)
    # x_j - x_i = -dx  (ctx.dx stores x_i - x_j)
    dji = -ctx.dx
    m1 = ctx.scatter_sum(vw[:, None] * dji)
    outer = dji[:, :, None] * dji[:, None, :]
    m2 = ctx.scatter_sum(vw[:, None, None] * outer)
    return m0, m1, m2


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


def compute_moment_gradients(
    ctx: PairContext,
    h: np.ndarray,
    volume: np.ndarray,
    m0: np.ndarray,
    m1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial gradients of the moments with respect to x_i.

    With ``dji = x_j - x_i`` (so ``d dji / d x_i = -I``):

        dm0[p, g]       = sum_j V_j dW_g
        dm1[p, a, g]    = sum_j V_j dji_a dW_g - delta_ag m0
        dm2[p, a, b, g] = sum_j V_j dji_a dji_b dW_g
                          - (delta_ag m1_b + delta_bg m1_a)

    where ``dW`` is the gradient of the uncorrected kernel with respect
    to x_i.  The product rule's ``-I W`` terms sum to the ``m0``/``m1``
    of :func:`compute_moments` (self term included: its ``dji`` and
    ``dW`` vanish, its ``-delta W`` is in m0), so they enter per particle.
    """
    vgw = volume[ctx.j][:, None] * ctx.kernel_gradients(h)
    dji = -ctx.dx
    eye = xp.eye(3, dtype=vgw.dtype)

    dm0 = ctx.scatter_sum(vgw)
    dgw = dji[:, :, None] * vgw[:, None, :]
    dm1 = ctx.scatter_sum(dgw) - eye * m0[:, None, None]
    dm2 = ctx.scatter_sum(dji[:, :, None, None] * dgw[:, None, :, :]) - (
        eye[:, None, :] * m1[:, None, :, None]
        + eye[None, :, :] * m1[:, :, None, None]
    )
    return dm0, dm1, dm2


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
    gradients."""
    volume = xp.ensure_float(volume)
    if len(volume) != ctx.n:
        raise ValueError("volume array does not match the pair context")
    m0, m1, m2 = compute_moments(ctx, h, volume)
    a, b = solve_coefficients(m0, m1, m2)
    dm0, dm1, dm2 = compute_moment_gradients(ctx, h, volume, m0, m1)
    grad_a, grad_b = solve_coefficient_gradients(m0, m1, m2, a, b, dm0, dm1, dm2)
    return CorrectionResult(
        a=a, b=b, m0=m0, m1=m1, m2=m2, grad_a=grad_a, grad_b=grad_b
    )


def corrected_kernel_values(
    ctx: PairContext, h: np.ndarray, corr: CorrectionResult
) -> np.ndarray:
    """W^R_ij = A_i (1 + B_i . (x_i - x_j)) W_ij on all pairs."""
    w = ctx.kernel_values(h)
    lin = 1.0 + xp.rowwise_dot(corr.b[ctx.i], ctx.dx)
    return corr.a[ctx.i] * lin * w


def corrected_kernel_gradients(
    ctx: PairContext, h: np.ndarray, corr: CorrectionResult
) -> np.ndarray:
    """The full gradient grad_i W^R_ij, including the grad-A / grad-B
    terms.

    With ``d = x_i - x_j`` and ``lin = 1 + B_i . d``:

        grad_g W^R = (dA_g lin + A ((dB . d)_g + B_g)) W + A lin grad_g W

    Carrying the coefficient gradients is what makes the corrected
    difference-form gradient estimates *exact* for affine fields -- the
    property the test suite pins and the reason the Corrections kernel
    is one of the paper's five arithmetic hotspots.
    """
    a = corr.a[ctx.i]
    b = corr.b[ctx.i]
    lin = 1.0 + xp.rowwise_dot(b, ctx.dx)
    db_dot_d = xp.einsum("pag,pa->pg", corr.grad_b[ctx.i], ctx.dx)
    coeff_term = corr.grad_a[ctx.i] * lin[:, None] + a[:, None] * (db_dot_d + b)
    return (
        coeff_term * ctx.kernel_values(h)[:, None]
        + (a * lin)[:, None] * ctx.kernel_gradients(h)
    )
