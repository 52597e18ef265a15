"""Neighbour finding on a periodic box.

The SPH kernels and the short-range gravity both need
"all pairs closer than a cutoff".  We use a uniform cell list sized to
the cutoff, fully vectorised: particles are binned, the 27 neighbouring
cells are scanned with array operations, and the result is a flat
directed (i, j) pair list.

This plays the role of CRK-HACC's interaction-list construction; the
pair counts it produces also feed the instruction profiles of the GPU
kernel cost model (interactions per work-item).

There is one search path and its output, order included, is a pure
function of ``(positions, box, cutoff)``: a :class:`CellList` bins one
position set for one cutoff and answers only for that set, so the
segment sums downstream cannot depend on what was searched before and
a restored run is bit-equal to an uninterrupted one.  The bin-and-sort
is a fraction of a millisecond where the search is tens, so every
query bins afresh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro import xp


def _cell_index(pos: np.ndarray, box: float, n_cells: int) -> np.ndarray:
    cell = xp.floor((pos % box) / (box / n_cells)).astype(np.int64)
    return xp.clip(cell, 0, n_cells - 1)


#: largest cutoff, as a fraction of the box, of any minimum-image pair
#: search (strictly below box/2 to keep the image unique)
MINIMUM_IMAGE_FRACTION = 0.499

#: fewest cells per side the stencil search takes: below 3 the stencil
#: would double count periodic images; at 3 the half stencil scans every
#: pair of the box and loses to the dense search 1.6-1.8x (N 512-3456,
#: binning included), at 4 it wins 1.2-1.8x
MIN_CELLS = 4

#: the self cell followed by the 13 lexicographically-positive offsets
#: of the 27-cell stencil, in fixed offset-major order (dx outermost, dz
#: innermost): each unordered pair of distinct cells is scanned exactly
#: once (the self cell is deduplicated by the i < j filter)
_HALF_STENCIL = np.array(
    [(0, 0, 0)]
    + [o for o in itertools.product((-1, 0, 1), repeat=3) if o > (0, 0, 0)],
    dtype=np.int64,
)


@dataclass
class CellList:
    """Uniform cell decomposition of one position set for one cutoff.

    The bin + stable sort is done at :meth:`build`; the query
    (:meth:`pairs_within`) is then a pure gather over the sorted
    structure with no Python-level per-particle loops.
    Cells are at least ``cutoff`` wide, so the 27-cell stencil holds
    every pair within it.
    """

    box: float
    n_cells: int
    cell_size: float
    pos: np.ndarray
    order: np.ndarray | None = field(default=None, repr=False)
    boundaries: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, pos: np.ndarray, box: float, cutoff: float) -> "CellList":
        pos = np.asarray(pos, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        n_cells = max(1, int(np.floor(box / cutoff)))
        order = boundaries = None
        # below MIN_CELLS per side queries take the dense search
        if n_cells >= MIN_CELLS and len(pos):
            cells = _cell_index(pos, box, n_cells)
            flat = (cells[:, 0] * n_cells + cells[:, 1]) * n_cells + cells[:, 2]
            order = xp.argsort(flat)
            boundaries = xp.searchsorted(flat[order], xp.arange(n_cells**3 + 1))
        return cls(
            box=box,
            n_cells=n_cells,
            cell_size=box / n_cells,
            pos=pos,
            order=order,
            boundaries=boundaries,
        )

    # ------------------------------------------------------------------
    @property
    def use_cells(self) -> bool:
        """Whether the stencil search is active (vs brute force)."""
        return self.order is not None

    def _check_cutoff(self, cutoff: float) -> None:
        # box / floor(box / cutoff) can round an ulp below cutoff itself
        if cutoff > self.cell_size * (1.0 + 1e-12):
            raise ValueError(
                f"cell list (cell size {self.cell_size:.6g}) cannot answer "
                f"cutoff {cutoff:.6g}"
            )

    def _offset_candidates(
        self, cells: np.ndarray, offset: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) candidate pairs of every particle's cell with the cell
        at ``offset`` from it, fully vectorised (cumsum-based ragged
        gather, no Python-level per-particle loops)."""
        n = self.n_cells
        ncell = (cells + offset) % n
        nflat = (ncell[:, 0] * n + ncell[:, 1]) * n + ncell[:, 2]
        starts = self.boundaries[nflat]
        counts = self.boundaries[nflat + 1] - starts
        total = int(xp.sum(counts))
        rep = xp.repeat(xp.arange(len(self.pos)), counts)
        # ragged ranges 0..counts[k] for every bucket, without a Python
        # loop: a global arange minus each element's bucket offset
        shifts = xp.cumsum(counts) - counts
        within = xp.arange(total, dtype=np.int64) - xp.repeat(shifts, counts)
        return rep, self.order[xp.repeat(starts, counts) + within]

    def pairs_within(self, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """All directed pairs (i, j), i != j, within ``cutoff`` among the
        member particles.

        The cutoff decision is made once per unordered pair in the
        canonical direction and mirrored, so the directed list is
        exactly symmetric (see :func:`find_pairs`).  The half stencil
        is searched one offset at a time, in its order, so the largest
        temporaries hold one offset's candidates, not fourteen.
        """
        self._check_cutoff(cutoff)
        if not self.use_cells:
            return _find_pairs_bruteforce(self.pos, self.box, cutoff)
        cells = _cell_index(self.pos, self.box, self.n_cells)
        rows, cols = [], []
        for k, offset in enumerate(_HALF_STENCIL):
            gi, gj = self._offset_candidates(cells, offset)
            _d, r2 = pair_separations(self.pos, self.box, gi, gj)
            mask = r2 < cutoff * cutoff
            # cross-cell candidates already appear once per unordered
            # pair; only the self cell (offset 0) needs the index dedup
            if k == 0:
                mask &= gi < gj
            rows.append(gi[mask])
            cols.append(gj[mask])
        i, j = xp.concatenate(rows), xp.concatenate(cols)
        return xp.concatenate([i, j]), xp.concatenate([j, i])


class CellListCache:
    """Where the driver gets its cell lists, and the count of them.

    Despite the name nothing is stored (see the module docstring for
    why): ``get(pos, cutoff)`` is ``CellList.build(pos, self.box,
    cutoff)`` plus a count (``builds``, mirrored to the
    ``sim.pairs.cell_list.builds`` counter when ``metrics`` is set).
    The class and its name stay because ``bench/layers.py`` times
    ``CellListCache.get`` and ``CellList.build`` by name and reads
    ``use_cells`` off the ``cell_list=`` the gravity solver passes on.
    """

    def __init__(self, box: float, *, metrics=None):
        self.box = box
        self.metrics = metrics
        self.builds = 0

    def get(self, pos: np.ndarray, cutoff: float) -> CellList:
        self.builds += 1
        if self.metrics is not None:
            self.metrics.counter("sim.pairs.cell_list.builds").inc()
        return CellList.build(pos, self.box, cutoff)


def find_pairs(
    pos: np.ndarray,
    box: float,
    cutoff: float,
    *,
    cell_list: CellList | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All directed pairs (i, j), i != j, with minimum-image |x_i - x_j| < cutoff.

    The symmetric list is a canonical half and its mirror: the cutoff is
    decided once per unordered pair and, with ``half = len(i) // 2``,
    ``i[half:] == j[:half]`` and ``j[half:] == i[:half]`` on both search
    paths; ``PairContext``, short-range gravity and FOF/DBSCAN rely on it.

    ``cell_list``, when given, must be the :class:`CellList` of ``pos``
    -- same box, same positions by value, cells at least ``cutoff``
    wide -- and is used instead of binning here; the result is the same
    either way.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff > MINIMUM_IMAGE_FRACTION * box:
        raise ValueError(
            f"cutoff {cutoff} exceeds the minimum-image bound of box {box}"
        )
    if cell_list is None:
        cell_list = CellList.build(pos, box, cutoff)
    elif cell_list.box != box:
        raise ValueError(
            f"cell list box {cell_list.box} does not match query box {box}"
        )
    elif not np.array_equal(cell_list.pos, pos):
        raise ValueError("cell list was binned over other positions")
    return cell_list.pairs_within(cutoff)


def pair_separations(pos, box, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image ``x_i - x_j`` of the index pairs ``(i, j)`` and its
    squared length: the one separation routine of every pair consumer."""
    half = 0.5 * box
    d = pos[i] - pos[j]
    d = (d + half) % box - half
    return d, xp.rowwise_dot(d, d)


#: rows per block of the dense search; its largest temporaries are
#: (block, n) float64 instead of the (n, n, 3) a one-shot search needs
_BRUTE_BLOCK = 256
#: strict upper triangle of one diagonal block (sliced for the last one)
_BLOCK_TRIU = np.triu(np.ones((_BRUTE_BLOCK, _BRUTE_BLOCK), dtype=bool), k=1)


def _find_pairs_bruteforce(pos, box, cutoff):
    """Dense O(n^2) fallback for small particle counts / large cutoffs.

    Searched in row blocks: per-axis 2-D differences with the minimum
    image applied in place, ``r2`` accumulated in place, one
    ``np.nonzero`` per block.  A block only visits the columns from its
    first row on (the upper triangle).  The canonical half comes out
    row-major, i.e. in the order a one-shot ``np.nonzero`` over the
    full (n, n) mask would give it.
    """
    half = 0.5 * box
    cut2 = cutoff * cutoff
    columns = np.ascontiguousarray(pos.T)
    empty = np.empty(0, dtype=np.int64)
    rows, cols = [empty], [empty]
    for a0 in range(0, len(pos), _BRUTE_BLOCK):
        block = pos[a0 : a0 + _BRUTE_BLOCK]
        r2 = None
        for axis in range(3):
            d = block[:, axis, None] - columns[axis, None, a0:]
            d += half
            d %= box
            d -= half
            d *= d
            if r2 is None:
                r2 = d
            else:
                r2 += d
        mask = r2 < cut2
        # decide the cutoff once per unordered pair (see find_pairs)
        m = len(block)
        mask[:, :m] &= _BLOCK_TRIU[:m, :m]
        bi, bj = np.nonzero(mask)
        bi += a0
        bj += a0
        rows.append(bi)
        cols.append(bj)
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    return np.concatenate([i, j]), np.concatenate([j, i])
