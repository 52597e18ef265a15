"""Smoothing-kernel mathematics.

The cubic B-spline kernel in 3-D with compact support ``2h``:

    W(r, h) = (1 / pi h^3) * { 1 - 1.5 q^2 + 0.75 q^3        0 <= q < 1
                               0.25 (2 - q)^3                1 <= q < 2
                               0                             q >= 2 }

with ``q = r/h``.  Both W and its gradient are vectorised over pair
arrays; per-interaction flop counts used by the GPU cost model are
derived from these expressions and pinned by tests
(:data:`W_FLOPS_PER_PAIR`, :data:`GRADW_FLOPS_PER_PAIR`).
"""

from __future__ import annotations

import numpy as np

from repro import xp

#: kernel support radius in units of h
SUPPORT = 2.0

_NORM_3D = 1.0 / np.pi

#: floating-point operations per W(r, h) evaluation (polynomial branch,
#: counting the q = r/h division and normalisation; used for costing)
W_FLOPS_PER_PAIR = 12
#: flops per gradient evaluation (dW/dq, the 1/(r h) factors, 3 components)
GRADW_FLOPS_PER_PAIR = 18


def cubic_spline(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Kernel value W(r, h); supports broadcasting of r against h.

    Dtype-preserving: float32 inputs produce a float32 kernel value
    (``xp.ensure_float`` converts without upcasting).
    """
    r = xp.ensure_float(r)
    h = xp.ensure_float(h)
    if xp.any(h <= 0):
        raise ValueError("smoothing lengths must be positive")
    q = r / h
    w = xp.where(
        q < 1.0,
        1.0 - 1.5 * q**2 + 0.75 * q**3,
        xp.where(q < SUPPORT, 0.25 * (2.0 - q) ** 3, 0.0),
    )
    return _NORM_3D * w / h**3


def cubic_spline_derivative(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """dW/dr at separation r."""
    r = xp.ensure_float(r)
    h = xp.ensure_float(h)
    if xp.any(h <= 0):
        raise ValueError("smoothing lengths must be positive")
    q = r / h
    dwdq = xp.where(
        q < 1.0,
        -3.0 * q + 2.25 * q**2,
        xp.where(q < SUPPORT, -0.75 * (2.0 - q) ** 2, 0.0),
    )
    return _NORM_3D * dwdq / h**4


def cubic_spline_gradient(dx: np.ndarray, r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gradient of W with respect to x_i: (dW/dr) * dx / r.

    ``dx`` is the (n, 3) displacement ``x_i - x_j``; the r = 0 case is
    returned as a zero vector (the kernel is smooth at the origin).
    """
    dx = xp.ensure_float(dx)
    r = xp.ensure_float(r)
    dwdr = cubic_spline_derivative(r, h)
    safe_r = xp.where(r > 0, r, 1.0)
    scale = xp.where(r > 0, dwdr / safe_r, 0.0)
    return scale[:, None] * dx


def kernel_self_value(h: np.ndarray) -> np.ndarray:
    """W(0, h) -- the self contribution of each particle."""
    h = xp.ensure_float(h)
    return _NORM_3D / h**3
