"""Shared pair-interaction context for the SPH kernels.

All five hot kernels iterate the same neighbour structure; CRK-HACC
builds interaction lists once per step and reuses them.  The
:class:`PairContext` holds the directed pair list, displacements and
separations so the kernel modules stay focused on their physics.

The rows are in segment order: :meth:`PairContext.build` sorts the
search's list by i once (stable, so a particle's terms add in
pair-list order), and ``mirror`` names the row of each pair's reverse.
A kernel streams the list through :meth:`PairContext.blocks`:
contiguous row slices of about :data:`PAIR_BLOCK` rows that never split
a particle's segment, whose per-pair terms ``xp.segment_sum`` reduces
into the particles the block holds.  Nothing pair-sized is allocated but
the arrays one kernel hands the next -- the GPU kernels of CRK-HACC
stream interactions through registers the same way and store nothing
per interaction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import xp
from repro.hacc.neighbors import (
    MINIMUM_IMAGE_FRACTION,
    CellListCache,
    find_pairs,
    pair_separations,
)
from repro.hacc.sph.kernels_math import SUPPORT, cubic_spline, cubic_spline_gradient

#: rows per block of every pass over a pair context (a block ends at the
#: first segment start past it).  Measured on the ``hydro_fine`` step
#: (138 240 pairs): peak memory is flat from 2 048 to 16 384 rows and
#: grows at 32 768, the kernels' time is flat from 4 096 to 16 384 and
#: slower at 32 768; 8 192 sits inside both plateaus (EXPERIMENTS.md
#: "One streaming pass")
PAIR_BLOCK = 8192


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
    """Directed SPH pair list with its geometry, in segment order.

    ``i``/``j`` index into the position array; pairs are directed
    (both (i, j) and (j, i) present), which matches the scatter-free
    gather formulation of the vectorised kernels.

    Contract, checked here (anything else is a ``ValueError``):

    - ``i`` is non-decreasing, so each particle's rows are one
      contiguous segment; ``starts`` and ``ids`` are the segments'
      first rows and particle ids;
    - row ``mirror[k]`` is row ``k`` reversed: ``i[mirror] == j``,
      ``j[mirror] == i`` and ``mirror[mirror] == arange(n_pairs)``.

    From :meth:`build` also ``dx[mirror] == -dx`` and ``r[mirror] == r``
    bitwise.  Side j of row k is side i of row ``mirror[k]``, which is
    how the Acceleration kernel antisymmetrises one gradient evaluation.

    The kernels read the rows through :meth:`blocks`.
    """

    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray       # x_i - x_j, minimum image, shape (m, 3)
    r: np.ndarray        # |dx|
    n: int               # number of particles
    mirror: np.ndarray   # row of each row's reverse
    starts: np.ndarray = field(init=False, repr=False)
    ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        i, j, mirror = self.i, self.j, self.mirror
        m = len(i)
        if len(j) != m or len(mirror) != m or xp.any(i[1:] < i[:-1]):
            raise ValueError("pair rows are not in segment order, one mirror each")
        if m and not (
            0 <= mirror.min()
            and mirror.max() < m
            and np.array_equal(mirror[mirror], xp.arange(m))
            and np.array_equal(i[mirror], j)
            and np.array_equal(j[mirror], i)
        ):
            raise ValueError("mirror is not the row of each pair's reverse")
        self.starts = xp.flatnonzero(np.r_[True, i[1:] != i[:-1]]) if m else i[:0]
        self.ids = i[self.starts]

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
                mirror=empty,
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
        # row k holds the search's pair order[k]; pair p < half is
        # reversed by pair p + half and vice versa, found in row_of[...]
        order = xp.argsort(idx_i)
        row_of = xp.empty(len(order), dtype=np.int64)
        row_of[order] = xp.arange(len(order))
        return cls(
            i=idx_i[order],
            j=idx_j[order],
            dx=xp.take(xp.concatenate([d, -d]), order),
            r=xp.concatenate([r, r])[order],
            n=len(pos),
            mirror=row_of[xp.where(order < half, order + half, order - half)],
        )

    @property
    def n_pairs(self) -> int:
        return len(self.i)

    def blocks(self):
        """The rows in contiguous blocks: ``(rows, starts, ids)`` per
        block, where ``rows`` is a slice (so ``self.dx[rows]`` is a
        view, not a gather), ``starts`` are the block's segment starts
        relative to ``rows.start`` and ``ids`` the particle of each
        segment.  A block opens at the first segment start in each run
        of :data:`PAIR_BLOCK` rows, so it never splits a segment and a
        particle's sum is the same whatever the block size."""
        if not self.n_pairs:
            return
        window = self.starts // PAIR_BLOCK
        first = xp.flatnonzero(np.r_[True, window[1:] != window[:-1]])
        segments = np.append(first, len(self.starts)).tolist()
        edges = np.append(self.starts[first], self.n_pairs).tolist()
        for k in range(len(first)):
            s0, s1, lo = segments[k], segments[k + 1], edges[k]
            yield slice(lo, edges[k + 1]), self.starts[s0:s1] - lo, self.ids[s0:s1]

    def _h_i(self, h, rows: slice) -> np.ndarray:
        """Per-pair i-side smoothing lengths of ``rows``, broadcasting a
        scalar ``h`` like the rest of the SPH API does."""
        h = xp.ensure_float(h)
        if h.ndim == 0:
            return h
        return h[self.i[rows]]

    def kernel_values(self, h: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """W(r_ij, h_i) on ``rows`` (all pairs by default); ``h`` may be
        (n,) or scalar."""
        return cubic_spline(self.r[rows], self._h_i(h, rows))

    def kernel_gradients(self, h: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """grad_i W(r_ij, h_i) on ``rows`` (all pairs by default), shape
        (rows, 3); ``h`` may be (n,) or scalar."""
        return cubic_spline_gradient(self.dx[rows], self.r[rows], self._h_i(h, rows))

    def mean_neighbors(self) -> float:
        """Mean directed neighbour count (cost-model input)."""
        if self.n == 0:
            return 0.0
        return self.n_pairs / self.n
