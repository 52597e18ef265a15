"""The compiled pair search against the numpy search it replaced.

``find_pairs`` is one C routine whose output order every segment sum
downstream adds in, so the oracle is the numpy search
(``tests.hacc.oracles.numpy_find_pairs``) pair for pair, order
included: on random boxes on both sides of ``MIN_CELLS``, with
coincident particles, positions on cell faces and positions outside
``[0, box)``, and through ``PairContext.build``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hacc.sph.pairs as sph_pairs
from repro.hacc.neighbors import (
    MINIMUM_IMAGE_FRACTION,
    CellList,
    find_pairs,
    pair_separations,
)
from repro.hacc.sph.kernels_math import SUPPORT
from repro.hacc.sph.pairs import PairContext
from tests.hacc.oracles import numpy_find_pairs


@st.composite
def boxes(draw):
    """(positions, box, cutoff, grid cutoff): a cutoff from 1/14 of the
    box (14 cells per side, the cell path) up to the minimum-image bound
    (1 cell, the dense path below ``MIN_CELLS``), or
    an ulp off one pair's separation, and the cutoff a caller's cell
    list was built for (its own or wider)."""
    box = draw(st.floats(0.5, 200.0))
    cutoff = box * draw(st.floats(1.0 / 14.0, MINIMUM_IMAGE_FRACTION))
    wider = draw(st.booleans())
    grid_cutoff = draw(st.floats(cutoff, MINIMUM_IMAGE_FRACTION * box)) if wider else cutoff
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(0.0, box, (n, 3))
    if n and draw(st.booleans()):  # coincident particles
        pos[rng.integers(0, n, n // 3 + 1)] = pos[rng.integers(0, n)]
    if n and draw(st.booleans()):  # coordinates on cell faces
        size = box / max(1, int(np.floor(box / grid_cutoff)))
        faces = rng.random((n, 3)) < 0.5
        pos[faces] = np.round(pos[faces] / size) * size
    if n and draw(st.booleans()):  # outside [0, box): whole boxes off
        pos += box * rng.integers(-2, 3, (n, 3))
    if n > 1 and draw(st.booleans()):
        # a cutoff at (or an ulp off) one pair's separation: the decision
        # then rests on every rounding of the minimum image and of r2
        a = int(rng.integers(n))
        others = np.delete(np.arange(n), a)
        _d, r2 = pair_separations(pos, box, np.full(n - 1, a), others)
        r = np.sqrt(r2)
        fits = r[(box / 14.0 <= r) & (r <= grid_cutoff)]
        if len(fits):
            edge = fits[rng.integers(len(fits))]
            ulp = draw(st.sampled_from([-1, 0, 1]))
            cutoff = float(np.nextafter(edge, ulp * np.inf) if ulp else edge)
    return pos, box, cutoff, grid_cutoff


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


@given(boxes())
@settings(max_examples=200, deadline=None)
def test_find_pairs_is_the_numpy_search(case):
    pos, box, cutoff, grid_cutoff = case
    assert_same(find_pairs(pos, box, cutoff), numpy_find_pairs(pos, box, cutoff))
    cells = CellList.build(pos, box, grid_cutoff)
    assert_same(
        find_pairs(pos, box, cutoff, cell_list=cells),
        numpy_find_pairs(pos, box, cutoff, n_cells=cells.n_cells),
    )


@given(boxes())
@settings(max_examples=60, deadline=None)
def test_pair_context_is_the_numpy_searchs(case):
    pos, box, cutoff, _grid = case
    h = np.full(len(pos), cutoff / SUPPORT)
    got = PairContext.build(pos, h, box)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sph_pairs, "find_pairs", lambda p, b, c, **_: numpy_find_pairs(p, b, c))
        want = PairContext.build(pos, h, box)
    for name in ("i", "j", "dx", "r", "mirror", "starts", "ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name

