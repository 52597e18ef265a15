"""Functional sub-group intrinsics.

These NumPy implementations give the lane-level kernel algorithms in
:mod:`repro.kernels` executable semantics: arrays carry the sub-group
as their *last* axis, and each function reproduces the data movement of
the corresponding SYCL group operation.  They are the reproduction's
equivalents of:

- ``sycl::select_from_group``           -> :func:`select_from_group`
- ``sycl::group_broadcast``             -> :func:`group_broadcast`
- the XOR shuffle (``__shfl_xor_sync``) -> :func:`xor_partner` lanes
- the specialized butterfly shuffle of Section 5.3.3 (Figure 7)
                                        -> :func:`butterfly_partner` lanes

A shuffle is a :func:`select_from_group` over partner lanes.  The
half-warp algorithm's pair-wise symmetry property is stated (and
property-tested) in terms of these functions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "select_from_group",
    "group_broadcast",
    "butterfly_partner",
    "xor_partner",
]


def _check_lanes(x: np.ndarray) -> int:
    if x.ndim < 1:
        raise ValueError("sub-group array must have at least one axis")
    size = x.shape[-1]
    if size & (size - 1) or size == 0:
        raise ValueError(f"sub-group size must be a power of two, got {size}")
    return size


def select_from_group(x: np.ndarray, src: np.ndarray | int) -> np.ndarray:
    """Each lane reads the value held by lane ``src``.

    ``src`` may be a scalar (uniform gather == broadcast), a 1-D array
    of per-lane source indices, or an array broadcastable to ``x``'s
    shape.  This is the arbitrary-pattern primitive that lowers to
    indirect register access on Intel hardware (Figure 5).
    """
    size = _check_lanes(x)
    src_arr = np.asarray(src)
    if np.any((src_arr < 0) | (src_arr >= size)):
        raise IndexError(f"source lane out of range for sub-group size {size}")
    return np.take(x, src_arr, axis=-1)


def xor_partner(size: int, mask: int) -> np.ndarray:
    """Per-lane partner indices of the XOR shuffle pattern (Figure 4)."""
    lanes = np.arange(size)
    return lanes ^ mask


def group_broadcast(x: np.ndarray, lane: int) -> np.ndarray:
    """All lanes read lane ``lane``'s value (``sycl::group_broadcast``)."""
    size = _check_lanes(x)
    if not 0 <= lane < size:
        raise ValueError(f"lane {lane} out of range for sub-group size {size}")
    value = x[..., lane]
    return np.broadcast_to(value[..., None], x.shape).copy()


def butterfly_partner(size: int, step: int) -> np.ndarray:
    """Partner indices for step ``step`` of the specialized butterfly.

    The pattern (Figure 7): lanes swap halves, then the receiving half
    applies a cyclic inward shift of ``step``.  Lower lane ``l`` reads
    upper lane ``H + ((l + step) mod H)``; upper lane ``H + m`` reads
    lower lane ``(m - step) mod H``.  For every lower-lane pair
    ``(A_l, B_{(l+step) mod H})`` there is an upper lane evaluating the
    transposed pair, preserving the half-warp algorithm's symmetry with
    a compile-time-known (hence cheap) data movement.
    """
    if size & (size - 1) or size < 2:
        raise ValueError(f"sub-group size must be a power of two >= 2, got {size}")
    half = size // 2
    step = step % half
    lanes = np.arange(size)
    partner = np.empty(size, dtype=np.int64)
    lower = lanes[:half]
    upper_m = lanes[half:] - half
    partner[:half] = half + (lower + step) % half
    partner[half:] = (upper_m - step) % half
    return partner
