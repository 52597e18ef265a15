"""The half-warp algorithm, lane by lane (Figures 3 and 4).

CRK-HACC alleviates register pressure by splitting pair-interaction
inputs across two logical thread types: lanes [0, S/2) of a sub-group
load particles from leaf A, lanes [S/2, S) from leaf B.  Over S/2
communication steps every A particle meets every B particle, and --
critically -- whenever a lower lane evaluates the interaction (i, j),
some upper lane evaluates (j, i) *in the same step*, so both sides'
accumulators advance symmetrically.

This module executes that schedule functionally, with the exchange
step delegated to a :class:`~repro.kernels.variants.base.Variant`.
The test suite uses it to show that every variant (XOR select, local
memory, butterfly/vISA, and the broadcast restructure) computes
identical physics -- the property that let the paper's authors switch
variants with a one-line macro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.kernels.variants.base import Variant
from repro.proglang import intrinsics

#: pair function: (own_fields, other_fields) -> per-lane contribution;
#: field arrays have shape (n_fields, subgroup_size)
PairFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HalfWarpResult:
    """Accumulated per-particle results of a leaf-pair interaction."""

    #: contributions accumulated by leaf-A particles, shape (S/2,)
    leaf_a: np.ndarray
    #: contributions accumulated by leaf-B particles, shape (S/2,)
    leaf_b: np.ndarray


def _lane_layout(
    payload_a: np.ndarray, payload_b: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Pack two leaf payloads into the SIMD lane layout of Figure 3."""
    payload_a = np.asarray(payload_a, dtype=np.float64)
    payload_b = np.asarray(payload_b, dtype=np.float64)
    if payload_a.shape != payload_b.shape:
        raise ValueError("leaf payloads must have identical shapes")
    if payload_a.ndim != 2:
        raise ValueError("payloads must be (n_fields, leaf_size)")
    n_fields, half = payload_a.shape
    if half & (half - 1):
        raise ValueError("leaf size must be a power of two")
    lanes = np.concatenate([payload_a, payload_b], axis=1)
    return lanes, n_fields, half


def run_halfwarp(
    payload_a: np.ndarray,
    payload_b: np.ndarray,
    pair_fn: PairFunction,
    variant: Variant,
    *,
    schedule: str = "xor",
) -> HalfWarpResult:
    """Execute one leaf-pair interaction instance.

    ``payload_a``/``payload_b`` are (n_fields, S/2) arrays of the two
    leaves' particle state.  ``schedule`` selects the communication
    pattern: ``"xor"`` (Figure 4) or ``"butterfly"`` (Figure 7); both
    visit every cross-leaf pair exactly once and preserve pair-wise
    symmetry.  The broadcast-restructured variant ignores the schedule
    and uses its own loop (Section 5.3.2).
    """
    lanes, _n_fields, half = _lane_layout(payload_a, payload_b)
    size = 2 * half

    if variant.algorithm == "broadcast":
        return _run_broadcast(lanes, half, pair_fn)

    if schedule == "xor":
        partners = [intrinsics.xor_partner(size, half + step) for step in range(half)]
    elif schedule == "butterfly":
        partners = [intrinsics.butterfly_partner(size, step) for step in range(half)]
    else:
        raise ValueError(f"unknown schedule {schedule!r}")

    accum = np.zeros(size)
    scratch: dict[str, np.ndarray] = {}
    for partner in partners:
        _check_cross_leaf(partner, half)
        other = variant.exchange(lanes, partner, scratch)
        accum += pair_fn(lanes, other)
    return HalfWarpResult(leaf_a=accum[:half], leaf_b=accum[half:])


def _check_cross_leaf(partner: np.ndarray, half: int) -> None:
    """Every step must pair lower lanes with upper lanes and be an
    involution (the pair-symmetry invariant)."""
    size = 2 * half
    lanes = np.arange(size)
    crosses = (lanes < half) != (partner < half)
    if not crosses.all():
        raise AssertionError("communication step does not cross leaves")
    if not np.array_equal(partner[partner], lanes):
        raise AssertionError("communication step is not an involution")


def _run_broadcast(
    lanes: np.ndarray, half: int, pair_fn: PairFunction
) -> HalfWarpResult:
    """The restructured broadcast loop.

    Every lane keeps its own particle; the partner state arrives by
    broadcasting each opposite-leaf lane in turn from a compile-time
    index.  Each lane therefore evaluates its own side of every pair
    (redundant compute, fewer atomics -- Section 5.3.2).
    """
    size = lanes.shape[-1]
    accum = np.zeros(size)
    lane_ids = np.arange(size)
    for src in range(size):
        other = intrinsics.group_broadcast(lanes, src)
        # only cross-leaf pairs interact
        mask = (lane_ids < half) != (src < half)
        accum += np.where(mask, pair_fn(lanes, other), 0.0)
    return HalfWarpResult(leaf_a=accum[:half], leaf_b=accum[half:])
