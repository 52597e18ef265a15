"""Neighbour finding on a periodic box.

The SPH kernels and the short-range gravity both need
"all pairs closer than a cutoff".  We use a uniform cell list sized to
the cutoff, fully vectorised: particles are binned, the 27 neighbouring
cells are scanned with array operations, and the result is a flat
directed (i, j) pair list.

This plays the role of CRK-HACC's interaction-list construction; the
pair counts it produces also feed the instruction profiles of the GPU
kernel cost model (interactions per work-item).

The decomposition itself is reusable: a :class:`CellList` owns the
bin-and-sort of one position set and can answer many queries (different
cutoffs, different i-sides, subsets), and a :class:`CellListCache`
keeps one alive across kernel calls with a Verlet-skin rebuild
criterion -- the binning stays valid while no particle has moved more
than half the skin since it was built, exactly CRK-HACC's
build-once-per-step interaction-list reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro import xp


def _cell_index(pos: np.ndarray, box: float, n_cells: int) -> np.ndarray:
    cell = xp.floor((pos % box) / (box / n_cells)).astype(np.int64)
    return xp.clip(cell, 0, n_cells - 1)


@lru_cache(maxsize=None)
def _stencil(reach: int, half: bool) -> np.ndarray:
    """The ``(2*reach + 1)**3`` cell stencil, in fixed offset-major
    order (dx outermost, dz innermost).

    ``reach`` > 1 lets a finely-binned cell list answer a cutoff larger
    than one cell edge, so one decomposition serves queries at several
    scales.  With ``half`` the self cell comes first followed by the
    lexicographically-positive offsets only: on a *fresh* binning each
    unordered pair of distinct cells is then scanned exactly once (the
    self cell is deduplicated by the i < j filter), halving candidate
    work.  The half stencil is unsafe on a stale Verlet-skin binning,
    where drift across cell boundaries can push both query directions
    into the negative half.
    """
    axis = range(-reach, reach + 1)
    if half:
        offsets = [(0, 0, 0)] + [
            (dx, dy, dz)
            for dx in axis
            for dy in axis
            for dz in axis
            if (dx, dy, dz) > (0, 0, 0)
        ]
    else:
        offsets = [(dx, dy, dz) for dx in axis for dy in axis for dz in axis]
    return np.array(offsets, dtype=np.int64)


@dataclass
class CellList:
    """Reusable uniform cell decomposition of one position set.

    The bin + stable sort is done once at :meth:`build`; every query
    (:meth:`pairs_within`, :meth:`cross_pairs`) is then a pure gather
    over the sorted structure with no Python-level per-particle loops.

    ``ref_pos`` is the snapshot the binning was computed from;
    ``pos`` are the *current* positions of the same particles (distances
    are always evaluated against ``pos``).  The binning stays a valid
    superset search structure for a query cutoff ``c`` as long as
    ``c + skin <= cell_size`` and no particle has drifted more than
    ``skin / 2`` from its reference position -- the classic Verlet-skin
    argument.
    """

    box: float
    cutoff: float  # cutoff the list was built for
    skin: float
    n_cells: int
    cell_size: float
    ref_pos: np.ndarray
    pos: np.ndarray
    order: np.ndarray | None = field(default=None, repr=False)
    boundaries: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls, pos: np.ndarray, box: float, cutoff: float, *, skin: float = 0.0
    ) -> "CellList":
        pos = np.asarray(pos, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        n_cells = max(1, int(np.floor(box / (cutoff + skin))))
        cell_size = box / n_cells
        order = boundaries = None
        # with fewer than 3 cells per side the 27-stencil would double
        # count periodic images; queries fall back to brute force
        if n_cells >= 3 and len(pos):
            cells = _cell_index(pos, box, n_cells)
            flat = (cells[:, 0] * n_cells + cells[:, 1]) * n_cells + cells[:, 2]
            order = xp.argsort(flat)
            boundaries = xp.searchsorted(flat[order], xp.arange(n_cells**3 + 1))
        return cls(
            box=box,
            cutoff=float(cutoff),
            skin=float(skin),
            n_cells=n_cells,
            cell_size=cell_size,
            ref_pos=pos,
            pos=pos,
            order=order,
            boundaries=boundaries,
        )

    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return len(self.ref_pos)

    @property
    def use_cells(self) -> bool:
        """Whether the stencil search is active (vs brute force)."""
        return self.order is not None

    def reach(self, cutoff: float) -> int:
        """Stencil half-width (in cells) covering ``cutoff`` plus drift.

        A pair within ``cutoff`` whose endpoints have each drifted at
        most ``skin / 2`` was separated by less than ``cutoff + skin``
        at build time, so its cells differ by at most
        ``ceil((cutoff + skin) / cell_size)`` per axis.
        """
        ratio = (cutoff + self.skin) / self.cell_size
        return max(1, int(np.ceil(ratio * (1.0 - 1e-12))))

    def supports(self, cutoff: float) -> bool:
        """Whether a query with this cutoff is exact on this binning.

        Cutoffs larger than one cell edge are answered with a wider
        ``(2k + 1)**3`` stencil; the binning supports the query as long
        as that stencil's cells are distinct under the periodic wrap
        (``2k + 1 <= n_cells``).  In the brute-force regime there is no
        binning to invalidate.
        """
        if not self.use_cells:
            return True
        return 2 * self.reach(cutoff) + 1 <= self.n_cells

    def update_positions(self, pos: np.ndarray) -> None:
        """Point the list at the particles' current positions.

        The binning is *not* recomputed; callers pair this with
        :meth:`is_current` (or a :class:`CellListCache`) to decide when
        a rebuild is due.
        """
        pos = np.asarray(pos, dtype=np.float64)
        if pos.shape != self.ref_pos.shape:
            raise ValueError(
                f"position set shape {pos.shape} does not match the "
                f"cell list's {self.ref_pos.shape}"
            )
        self.pos = pos

    def max_displacement(self) -> float:
        """Largest minimum-image drift of ``pos`` from ``ref_pos``."""
        if self.pos is self.ref_pos or not len(self.ref_pos):
            return 0.0
        half = 0.5 * self.box
        d = (self.pos - self.ref_pos + half) % self.box - half
        return float(np.sqrt(xp.max(xp.rowwise_dot(d, d))))

    def is_current(self) -> bool:
        """Verlet-skin criterion: binning still covers every true pair."""
        if not self.use_cells:
            return True  # brute force never consults the binning
        return self.max_displacement() <= 0.5 * self.skin

    # ------------------------------------------------------------------
    def _stencil_candidates(
        self, pos_query: np.ndarray, stencil: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(query index, member index, count from the stencil's first
        offset) candidate pairs, fully vectorised (cumsum-based ragged
        gather, no Python-level per-particle loops)."""
        n_q = len(pos_query)
        empty = np.array([], dtype=np.int64)
        if n_q == 0:
            return empty, empty, 0
        cells_q = _cell_index(pos_query, self.box, self.n_cells)
        ncell = (cells_q[None, :, :] + stencil[:, None, :]) % self.n_cells
        nflat = (
            (ncell[..., 0] * self.n_cells + ncell[..., 1]) * self.n_cells
            + ncell[..., 2]
        ).ravel()
        starts = self.boundaries[nflat]
        counts = self.boundaries[nflat + 1] - starts
        total = int(xp.sum(counts))
        n_first = int(xp.sum(counts[:n_q]))
        if total == 0:
            return empty, empty, 0
        rep = xp.repeat(xp.tile(xp.arange(n_q), len(stencil)), counts)
        # ragged ranges 0..counts[k] for every bucket, without a Python
        # loop: a global arange minus each element's bucket offset
        shifts = xp.cumsum(counts) - counts
        within = xp.arange(total, dtype=np.int64) - xp.repeat(shifts, counts)
        cand = self.order[xp.repeat(starts, counts) + within]
        return rep, cand, n_first

    def pairs_within(
        self, cutoff: float, *, subset: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All directed pairs (i, j), i != j, within ``cutoff`` among the
        member particles (or among ``subset`` of them, with indices
        local to the subset).

        The cutoff decision is made once per unordered pair in the
        canonical direction and mirrored, so the directed list is
        exactly symmetric (see :func:`find_pairs`).
        """
        empty = np.array([], dtype=np.int64)
        if subset is not None:
            subset = np.asarray(subset, dtype=np.int64)
        if not self.use_cells:
            p = self.pos if subset is None else self.pos[subset]
            return _find_pairs_bruteforce(p, p, self.box, cutoff, True)
        pos_q = self.pos if subset is None else self.pos[subset]
        # a fresh binning admits the half stencil (each unordered pair
        # of cells scanned once); a stale Verlet-skin binning needs the
        # full stencil plus the i < j dedup
        fresh = self.pos is self.ref_pos
        stencil = _stencil(self.reach(cutoff), fresh)
        rep, cand, n_self = self._stencil_candidates(pos_q, stencil)
        if len(rep) == 0:
            return empty, empty
        if subset is None:
            gi, gj = rep, cand
            local_j = cand
        else:
            local = xp.full(self.n_particles, -1, dtype=np.int64)
            local[subset] = xp.arange(len(subset))
            keep = local[cand] >= 0
            if fresh:
                n_self = int(xp.count_nonzero(keep[:n_self]))
            rep, cand = rep[keep], cand[keep]
            gi = subset[rep]
            gj = cand
            local_j = local[cand]
        half = 0.5 * self.box
        d = self.pos[gi] - self.pos[gj]
        d = (d + half) % self.box - half
        r2 = xp.rowwise_dot(d, d)
        mask = r2 < cutoff * cutoff
        if fresh:
            # cross-cell candidates already appear once per unordered
            # pair; only the self cell (first stencil offset) needs the
            # index dedup
            mask[:n_self] &= gi[:n_self] < gj[:n_self]
        else:
            mask &= gi < gj
        i_loc = rep[mask]
        j_loc = local_j[mask]
        return (
            xp.concatenate([i_loc, j_loc]),
            xp.concatenate([j_loc, i_loc]),
        )

    def cross_pairs(
        self, pos_query: np.ndarray, cutoff: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Directed cross pairs from ``pos_query`` (i) to the member set
        (j) within ``cutoff``, excluding exact coincidences (r = 0): a
        query particle coinciding with a member (e.g. a particle and
        its own ghost copy) would otherwise divide by zero in every
        gather-style kernel downstream.
        """
        pos_query = np.asarray(pos_query, dtype=np.float64)
        if not self.use_cells:
            return _find_pairs_bruteforce(
                pos_query, self.pos, self.box, cutoff, False
            )
        rep, cand, _n_self = self._stencil_candidates(
            pos_query, _stencil(self.reach(cutoff), False)
        )
        if len(rep) == 0:
            return rep, cand
        half = 0.5 * self.box
        d = pos_query[rep] - self.pos[cand]
        d = (d + half) % self.box - half
        r2 = xp.rowwise_dot(d, d)
        mask = (r2 < cutoff * cutoff) & (r2 > 0.0)
        return rep[mask], cand[mask]


class CellListCache:
    """Step-level :class:`CellList` cache with Verlet-skin reuse.

    ``get(pos, cutoff)`` returns a cell list valid for the query: a
    cached one (positions updated in place) while it still covers the
    cutoff and no particle has drifted more than half the skin since
    the binning was built; a fresh build otherwise.  A binning answers
    cutoffs larger than its cell edge through wider stencils
    (:meth:`CellList.reach`), so the SPH and short-range gravity
    queries of one step normally share one decomposition.  When the
    box is too small for one binning to serve both scales well, the
    cache keeps up to two resolution tiers instead of thrashing.

    ``builds`` / ``hits`` count rebuilds and reuses; when ``metrics``
    is set they are mirrored to the ``sim.pairs.cell_list.builds`` /
    ``sim.pairs.cell_list.hits`` counters.
    """

    #: resolution tiers kept alive at once
    MAX_LISTS = 2
    #: reuse a binning only while its cells are within this factor of
    #: the query's optimal cell size (candidate volume grows cubically)
    MAX_COARSENESS = 2.0
    #: ... and while the stencil stays this narrow: a much finer
    #: binning covers a large cutoff only through a huge bucket count
    MAX_REACH = 3

    def __init__(self, box: float, *, skin_fraction: float = 0.1, metrics=None):
        if skin_fraction < 0:
            raise ValueError("skin fraction must be non-negative")
        self.box = box
        self.skin_fraction = skin_fraction
        self.metrics = metrics
        self.builds = 0
        self.hits = 0
        self._lists: list[CellList] = []

    def _suitable(self, cached: CellList, cutoff: float, n: int) -> bool:
        if cached.n_particles != n or not cached.supports(cutoff):
            return False
        target = cutoff * (1.0 + self.skin_fraction)
        can_bin = int(np.floor(self.box / target)) >= 3
        if not cached.use_cells:
            # a brute-force list only stands in when brute force is the
            # best this cutoff could get anyway
            return not can_bin
        well_matched = (
            cached.cell_size <= self.MAX_COARSENESS * target
            and cached.reach(cutoff) <= self.MAX_REACH
        )
        return well_matched or not can_bin

    @staticmethod
    def _same_tier(a: CellList, b: CellList) -> bool:
        if not a.use_cells or not b.use_cells:
            return a.use_cells == b.use_cells
        ratio = a.cell_size / b.cell_size
        return 0.75 <= ratio <= 4.0 / 3.0

    def get(self, pos: np.ndarray, cutoff: float) -> CellList:
        pos = np.asarray(pos, dtype=np.float64)
        for k, cached in enumerate(self._lists):
            if not self._suitable(cached, cutoff, len(pos)):
                continue
            cached.update_positions(pos)
            if not cached.is_current():
                continue
            self.hits += 1
            if self.metrics is not None:
                self.metrics.counter("sim.pairs.cell_list.hits").inc()
            # most-recently-used first
            self._lists.insert(0, self._lists.pop(k))
            return cached
        cell_list = CellList.build(
            pos, self.box, cutoff, skin=self.skin_fraction * cutoff
        )
        self.builds += 1
        if self.metrics is not None:
            self.metrics.counter("sim.pairs.cell_list.builds").inc()
        keep = [c for c in self._lists if not self._same_tier(c, cell_list)]
        self._lists = ([cell_list] + keep)[: self.MAX_LISTS]
        return cell_list

    def invalidate(self) -> None:
        self._lists = []


def find_pairs(
    pos: np.ndarray,
    box: float,
    cutoff: float,
    *,
    pos_other: np.ndarray | None = None,
    cell_list: CellList | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All directed pairs (i, j), i != j, with |x_i - x_j| < cutoff.

    With ``pos_other`` given, finds cross pairs from ``pos`` (i) to
    ``pos_other`` (j) instead, used for gather-style kernels where the
    j-side includes ghost particles; exact coincidences (r = 0, a
    particle meeting its own ghost) are excluded there.
    Periodic minimum-image convention throughout.

    ``cell_list``, when given, must be a :class:`CellList` built over
    the j-side set (``pos`` itself in symmetric mode); it is reused
    instead of re-binning, which is the hot-loop path (see
    :class:`CellListCache`).
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if cutoff * 2.0 > box:
        raise ValueError(
            f"cutoff {cutoff} too large for box {box} under minimum image"
        )
    symmetric = pos_other is None
    other = pos if symmetric else np.asarray(pos_other, dtype=np.float64)

    if cell_list is None:
        cell_list = CellList.build(other, box, cutoff)
    else:
        if cell_list.box != box:
            raise ValueError(
                f"cell list box {cell_list.box} does not match query box {box}"
            )
        if not cell_list.supports(cutoff):
            raise ValueError(
                f"cell list (cell size {cell_list.cell_size:.6g}, skin "
                f"{cell_list.skin:.6g}) cannot answer cutoff {cutoff:.6g}"
            )
        cell_list.update_positions(other)

    if symmetric:
        return cell_list.pairs_within(cutoff)
    return cell_list.cross_pairs(pos, cutoff)


#: rows per block of the dense search; its largest temporaries are
#: (block, n) float64 instead of the (n, n, 3) a one-shot search needs
_BRUTE_BLOCK = 256
#: strict upper triangle of one diagonal block (sliced for the last one)
_BLOCK_TRIU = np.triu(np.ones((_BRUTE_BLOCK, _BRUTE_BLOCK), dtype=bool), k=1)


def _find_pairs_bruteforce(pos, other, box, cutoff, symmetric):
    """Dense O(n^2) fallback for small particle counts / large cutoffs.

    Searched in row blocks: per-axis 2-D differences with the minimum
    image applied in place, ``r2`` accumulated in place, one
    ``np.nonzero`` per block.  Symmetric mode only visits the columns
    from the block's first row on (the upper triangle).  Pairs come
    out row-major, i.e. in the order a one-shot ``np.nonzero`` over the
    full (n, n) mask would give them.
    """
    half = 0.5 * box
    cut2 = cutoff * cutoff
    columns = np.ascontiguousarray(other.T)
    empty = np.empty(0, dtype=np.int64)
    rows, cols = [empty], [empty]
    for a0 in range(0, len(pos), _BRUTE_BLOCK):
        block = pos[a0 : a0 + _BRUTE_BLOCK]
        c0 = a0 if symmetric else 0
        r2 = None
        for axis in range(3):
            d = block[:, axis, None] - columns[axis, None, c0:]
            d += half
            d %= box
            d -= half
            d *= d
            if r2 is None:
                r2 = d
            else:
                r2 += d
        mask = r2 < cut2
        if symmetric:
            # decide the cutoff once per unordered pair (see find_pairs)
            m = len(block)
            mask[:, :m] &= _BLOCK_TRIU[:m, :m]
        else:
            # cross mode: drop exact coincidences (see CellList.cross_pairs)
            mask &= r2 > 0.0
        bi, bj = np.nonzero(mask)
        bi += a0
        bj += c0
        rows.append(bi)
        cols.append(bj)
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    if symmetric:
        return np.concatenate([i, j]), np.concatenate([j, i])
    return i, j
