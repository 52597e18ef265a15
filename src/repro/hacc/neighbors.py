"""Neighbour finding on a periodic box.

The SPH kernels and the short-range gravity both need "all pairs closer
than a cutoff".  The search is one C routine (``pairsearch.c`` next to
this file): particles are binned into a uniform cell grid sized to the
cutoff and counting-sorted by cell, the half of the 27-cell stencil is
scanned, and the result is a flat directed (i, j) pair list.  Below
:data:`MIN_CELLS` cells per side it scans every pair instead.

This plays the role of CRK-HACC's interaction-list construction; the
pair counts it produces also feed the instruction profiles of the GPU
kernel cost model (interactions per work-item).

There is one search path and its output, order included, is a pure
function of ``(positions, box, cutoff)`` and the grid: a
:class:`CellList` is the grid of one position set for one cutoff and
answers only for that set, so the segment sums downstream cannot depend
on what was searched before and a restored run is bit-equal to an
uninterrupted one.  ``pairsearch.c`` states the order.

The system ``cc`` compiles the routine on the first search (not on
import) into ``~/.cache/repro``, keyed by the sha256 of its source and
flags, and ``ctypes`` loads it; ``ctypes`` releases the GIL, so rank
threads search at the same time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import xp

#: largest cutoff, as a fraction of the box, of any minimum-image pair
#: search (strictly below box/2 to keep the image unique)
MINIMUM_IMAGE_FRACTION = 0.499

#: fewest cells per side the stencil search takes: below 3 the stencil
#: would double count periodic images; at 3 the half stencil scans every
#: pair of the box and loses to the dense search 1.6-1.8x (N 512-3456,
#: binning included), at 4 it wins 1.2-1.8x
MIN_CELLS = 4


@dataclass(frozen=True, eq=False)
class CellList:
    """The cell grid of one position set for one cutoff.

    Cells are at least ``cutoff`` wide, so the 27-cell stencil holds
    every pair within it; below :data:`MIN_CELLS` per side (or with no
    particles) the dense search answers instead.  The binning itself is
    part of the search.
    """

    box: float
    n_cells: int
    cell_size: float
    pos: np.ndarray

    @classmethod
    def build(cls, pos: np.ndarray, box: float, cutoff: float) -> "CellList":
        pos = np.ascontiguousarray(pos, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        n_cells = max(1, int(np.floor(box / cutoff)))
        return cls(box=box, n_cells=n_cells, cell_size=box / n_cells, pos=pos)

    @property
    def use_cells(self) -> bool:
        """Whether the stencil search is active (vs brute force)."""
        return self.n_cells >= MIN_CELLS and len(self.pos) > 0

    def _check_cutoff(self, cutoff: float) -> None:
        # box / floor(box / cutoff) can round an ulp below cutoff itself
        if cutoff > self.cell_size * (1.0 + 1e-12):
            raise ValueError(
                f"cell list (cell size {self.cell_size:.6g}) cannot answer "
                f"cutoff {cutoff:.6g}"
            )


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
    wide -- and its grid is searched instead of one sized to ``cutoff``.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
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
    cell_list._check_cutoff(cutoff)
    n_cells = cell_list.n_cells if cell_list.use_cells else 0
    lib = _library()
    found = ctypes.c_void_p()
    half = lib.repro_find_pairs(
        pos.ctypes.data, len(pos), box, n_cells, cutoff, ctypes.byref(found)
    )
    if half < 0:
        raise MemoryError("pair search: out of memory")
    try:
        i = np.empty(2 * half, dtype=np.int64)
        j = np.empty(2 * half, dtype=np.int64)
    except BaseException:
        lib.repro_take_pairs(found, None, None)
        raise
    lib.repro_take_pairs(found, i.ctypes.data, j.ctypes.data)
    return i, j


def pair_separations(pos, box, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-image ``x_i - x_j`` of the index pairs ``(i, j)`` and its
    squared length: the one separation routine of every pair consumer."""
    half = 0.5 * box
    d = pos[i] - pos[j]
    d = (d + half) % box - half
    return d, xp.rowwise_dot(d, d)


# -- the compiled search -------------------------------------------------
_SOURCE = Path(__file__).with_name("pairsearch.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: per-user, never a shared temporary directory: another user could
#: plant the library loaded from there
_CACHE_DIR = Path("~/.cache/repro")
_LOCK = threading.Lock()
_LIB = None


def _library():
    """The loaded search, compiled first if this source and these flags
    have no library in the cache yet; one build however many threads
    ask at once."""
    global _LIB
    if _LIB is None:
        with _LOCK:
            if _LIB is None:
                _LIB = _load()
    return _LIB


def _load():
    import subprocess  # only a build needs it; not paid at import

    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    cache = _CACHE_DIR.expanduser()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    owner = cache.stat()
    if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
        raise RuntimeError(f"{cache} must belong to this user and be writable by no other")
    path = cache / f"pairsearch-{key[:16]}.so"
    if not path.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise RuntimeError(
                "the pair search is compiled on first use and needs a C "
                "compiler: no `cc` on PATH"
            )
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            done = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True,
                text=True,
            )
            if done.returncode:
                raise RuntimeError(f"compiling {_SOURCE.name} failed:\n{done.stderr}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    lib.repro_find_pairs.restype = ctypes.c_int64
    lib.repro_find_pairs.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.POINTER(ctypes.c_void_p),
    ]
    lib.repro_take_pairs.restype = None
    lib.repro_take_pairs.argtypes = [ctypes.c_void_p] * 3
    return lib
