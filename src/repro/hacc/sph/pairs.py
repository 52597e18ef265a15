"""Shared pair-interaction context for the SPH kernels.

All five hot kernels iterate the same neighbour structure; CRK-HACC
builds interaction lists once per step and reuses them.  The
:class:`PairContext` caches the directed pair list, displacements and
separations so the kernel modules stay focused on their physics.

The list is a canonical half followed by its mirror (see
:class:`PairContext`).  Scatter reductions are segmented sums: the list
is sorted by i once (stable, so a particle's terms add in pair-list
order) and every reduction is one contiguous ``xp.segment_sum`` pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro import xp
from repro.hacc.neighbors import (
    MINIMUM_IMAGE_FRACTION,
    CellListCache,
    find_pairs,
    pair_separations,
)
from repro.hacc.sph.kernels_math import SUPPORT, cubic_spline, cubic_spline_gradient


class CutoffTruncationWarning(RuntimeWarning):
    """The SPH kernel support exceeded the minimum-image bound and the
    pair search cutoff was clamped: neighbours beyond the bound are
    silently missing from every kernel sum."""


def sph_cutoff(h: np.ndarray, box: float) -> tuple[float, float]:
    """(requested, clamped) pair-search cutoff for smoothing lengths ``h``.

    The request is the full kernel support ``SUPPORT * max(h)``; the
    clamp is the minimum-image bound ``MINIMUM_IMAGE_FRACTION * box``.

    ``box`` must be a positive scalar; an array (almost always swapped
    ``(h, box)`` arguments) is a ``TypeError``.
    """
    if np.ndim(box) != 0:
        raise TypeError(
            f"box must be a scalar, got an array of shape "
            f"{np.shape(box)}; did you swap the (h, box) arguments of "
            "sph_cutoff?"
        )
    box = float(box)
    if box <= 0:
        raise ValueError(f"box must be positive, got {box}")
    requested = float(SUPPORT * np.max(h))
    return requested, min(requested, MINIMUM_IMAGE_FRACTION * box)


@dataclass
class PairContext:
    """Directed SPH pair list with cached geometry.

    ``i``/``j`` index into the position array; pairs are directed
    (both (i, j) and (j, i) present), which matches the scatter-free
    gather formulation of the vectorised kernels.

    Mirror contract, with ``half = n_pairs // 2``: row ``half + k`` is
    row ``k`` reversed -- ``i[half:] == j[:half]``, ``j[half:] ==
    i[:half]`` (anything else is a ``ValueError``) and, from
    :meth:`build`, ``dx[half:] == -dx[:half]``, ``r[half:] == r[:half]``
    bitwise.  Side j of pair k is side i of pair ``half + k``, which is
    how the Acceleration kernel antisymmetrises one gradient evaluation.
    """

    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray  # x_i - x_j, minimum image, shape (m, 3)
    r: np.ndarray   # |dx|
    n: int          # number of particles

    def __post_init__(self) -> None:
        half = len(self.i) // 2  # an odd list fails on the slice lengths
        if not (
            np.array_equal(self.i[half:], self.j[:half])
            and np.array_equal(self.j[half:], self.i[:half])
        ):
            raise ValueError("pair list is not a canonical half and its mirror")

    @classmethod
    def build(
        cls,
        pos: np.ndarray,
        h: np.ndarray,
        box: float,
        *,
        cells: CellListCache | None = None,
        metrics=None,
    ) -> "PairContext":
        """Pairs within the kernel support ``SUPPORT * max(h)``.

        ``cells``, when given, is where the cell list of ``pos`` at the
        search cutoff comes from (the driver's counted source); the
        context is the same with or without it.

        A support radius beyond the minimum-image bound cannot be
        searched; the cutoff is clamped, a
        :class:`CutoffTruncationWarning` is emitted, and the
        ``sim.pairs.cutoff_truncated`` counter is incremented on
        ``metrics`` so the truncation is observable instead of silent.
        """
        pos = xp.ensure_float(pos)
        h = xp.ensure_float(h)
        if len(pos) == 0:
            empty = np.array([], dtype=np.int64)
            return cls(
                i=empty,
                j=empty,
                dx=xp.zeros((0, 3), dtype=pos.dtype),
                r=xp.zeros(0, dtype=pos.dtype),
                n=0,
            )
        if xp.any(h <= 0):
            raise ValueError("smoothing lengths must be positive")
        requested, cutoff = sph_cutoff(h, box)
        if cutoff < requested:
            warnings.warn(
                f"SPH kernel support {requested:.6g} exceeds the "
                f"minimum-image bound {cutoff:.6g} of box {box:.6g}; "
                "the pair search is truncated and kernel sums are "
                "missing far neighbours",
                CutoffTruncationWarning,
                stacklevel=2,
            )
            if metrics is not None:
                metrics.counter("sim.pairs.cutoff_truncated").inc()
        cell_list = cells.get(pos, cutoff) if cells is not None else None
        idx_i, idx_j = find_pairs(pos, box, cutoff, cell_list=cell_list)
        # geometry of the canonical half only; the mirror is its negation
        half = len(idx_i) // 2
        d, r2 = pair_separations(pos, box, idx_i[:half], idx_j[:half])
        r = xp.sqrt(r2)
        dx, r = xp.concatenate([d, -d]), xp.concatenate([r, r])
        return cls(i=idx_i, j=idx_j, dx=dx, r=r, n=len(pos))

    @property
    def n_pairs(self) -> int:
        return len(self.i)

    def _h_i(self, h) -> np.ndarray:
        """Per-pair i-side smoothing lengths, broadcasting a scalar
        ``h`` like the rest of the SPH API does."""
        h = xp.ensure_float(h)
        if h.ndim == 0:
            return h
        return h[self.i]

    def kernel_values(self, h: np.ndarray) -> np.ndarray:
        """W(r_ij, h_i) on all pairs; ``h`` may be (n,) or scalar."""
        return cubic_spline(self.r, self._h_i(h))

    def kernel_gradients(self, h: np.ndarray) -> np.ndarray:
        """grad_i W(r_ij, h_i) on all pairs, shape (m, 3); ``h`` may be
        (n,) or scalar."""
        return cubic_spline_gradient(self.dx, self.r, self._h_i(h))

    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sort order, segment starts, segment particle ids) of the
        pair list grouped by i; computed once and cached, since every
        kernel's scatter reuses it."""
        cached = getattr(self, "_segment_cache", None)
        if cached is None:
            order = xp.argsort(self.i)
            i_sorted = self.i[order]
            starts = xp.flatnonzero(
                np.r_[True, i_sorted[1:] != i_sorted[:-1]]
            )
            cached = (order, starts, i_sorted[starts])
            self._segment_cache = cached
        return cached

    def scatter_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum pair values into per-particle accumulators over i.

        ``values`` may be (m,) or (m, k); returns (n,) or (n, k) in the
        *input dtype* (float32 pair values accumulate as float32
        instead of silently upcasting to float64).  This is the
        vectorised analogue of the GPU kernels' atomic adds; a
        particle's terms add in pair-list order, so equal inputs give
        bit-equal sums.
        """
        values = xp.asarray(values)
        out = xp.zeros((self.n,) + values.shape[1:], dtype=values.dtype)
        if self.n_pairs == 0:
            return out
        order, starts, ids = self._segments()
        out[ids] = xp.segment_sum(values[order], starts)
        return out

    def mean_neighbors(self) -> float:
        """Mean directed neighbour count (cost-model input)."""
        if self.n == 0:
            return 0.0
        return self.n_pairs / self.n
