"""Property-based tests for the sub-group intrinsics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.proglang import intrinsics as I
from tests.proglang.oracles import shuffle_xor

subgroup_sizes = st.sampled_from([4, 8, 16, 32, 64])


def lane_values(size):
    return hnp.arrays(
        dtype=np.float64,
        shape=(size,),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )


@st.composite
def lanes_and_mask(draw):
    size = draw(subgroup_sizes)
    values = draw(lane_values(size))
    mask = draw(st.integers(0, size - 1))
    return values, mask


@st.composite
def lanes_and_permutation(draw):
    size = draw(subgroup_sizes)
    values = draw(lane_values(size))
    perm = draw(st.permutations(range(size)))
    return values, np.array(perm)


class TestShuffleXorProperties:
    @given(lanes_and_mask())
    def test_involution(self, case):
        values, mask = case
        twice = shuffle_xor(shuffle_xor(values, mask), mask)
        assert np.array_equal(twice, values)

    @given(lanes_and_mask())
    def test_preserves_multiset(self, case):
        values, mask = case
        out = shuffle_xor(values, mask)
        assert np.array_equal(np.sort(out), np.sort(values))

    @given(lanes_and_mask())
    def test_sum_invariant(self, case):
        # summation order changes, so compare to float tolerance
        values, mask = case
        out_sum = shuffle_xor(values, mask).sum()
        scale = np.abs(values).sum() + 1.0
        assert abs(out_sum - values.sum()) < 1e-9 * scale


class TestSelectProperties:
    @given(lanes_and_permutation())
    def test_permutation_gather(self, case):
        values, perm = case
        out = I.select_from_group(values, perm)
        assert np.array_equal(out, values[perm])

    @given(lanes_and_permutation())
    def test_composition(self, case):
        values, perm = case
        # gathering twice composes the index maps
        once = I.select_from_group(values, perm)
        twice = I.select_from_group(once, perm)
        assert np.array_equal(twice, values[perm[perm]])


class TestButterflyProperties:
    @given(subgroup_sizes, st.integers(0, 63))
    def test_partner_is_cross_half_involution(self, size, step):
        p = I.butterfly_partner(size, step)
        half = size // 2
        lanes = np.arange(size)
        assert np.array_equal(p[p], lanes)
        assert np.all((lanes < half) != (p < half))

    @given(subgroup_sizes)
    @settings(max_examples=20)
    def test_schedule_covers_all_pairs_exactly_once(self, size):
        half = size // 2
        seen = []
        for step in range(half):
            p = I.butterfly_partner(size, step)
            seen.extend((lane, int(p[lane])) for lane in range(half))
        assert len(seen) == len(set(seen)) == half * half
