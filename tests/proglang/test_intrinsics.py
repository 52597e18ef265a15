"""Tests for the functional sub-group intrinsics."""

import numpy as np
import pytest

from repro.proglang import intrinsics as I
from tests.proglang.oracles import shuffle_xor


@pytest.fixture
def lanes32():
    return np.arange(32, dtype=float)


class TestSelectFromGroup:
    def test_identity_gather(self, lanes32):
        assert np.array_equal(I.select_from_group(lanes32, np.arange(32)), lanes32)

    def test_uniform_gather_is_broadcast(self, lanes32):
        out = I.select_from_group(lanes32, 7)
        assert np.all(out == 7.0)

    def test_batched_leading_axes(self):
        x = np.arange(64, dtype=float).reshape(2, 32)
        out = I.select_from_group(x, np.zeros(32, dtype=int))
        assert np.all(out[0] == 0.0)
        assert np.all(out[1] == 32.0)

    def test_out_of_range_lane_raises(self, lanes32):
        with pytest.raises(IndexError):
            I.select_from_group(lanes32, 32)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            I.select_from_group(np.arange(12.0), 0)


class TestShuffleXor:
    def test_is_involution(self, lanes32):
        for mask in (1, 5, 16, 31):
            assert np.array_equal(shuffle_xor(shuffle_xor(lanes32, mask), mask), lanes32)

    def test_values_swap_between_partner_lanes(self, lanes32):
        out = shuffle_xor(lanes32, 16)
        assert out[0] == 16.0
        assert out[16] == 0.0

    def test_mask_zero_is_identity(self, lanes32):
        assert np.array_equal(shuffle_xor(lanes32, 0), lanes32)


class TestGroupBroadcast:
    def test_all_lanes_get_source_value(self, lanes32):
        assert np.all(I.group_broadcast(lanes32, 5) == 5.0)

    def test_bad_lane_raises(self, lanes32):
        with pytest.raises(ValueError):
            I.group_broadcast(lanes32, -1)


class TestButterfly:
    @pytest.mark.parametrize("size", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("step", [0, 1, 3, 7])
    def test_partner_crosses_halves_and_is_involution(self, size, step):
        p = I.butterfly_partner(size, step)
        half = size // 2
        lanes = np.arange(size)
        assert np.all((lanes < half) != (p < half))
        assert np.array_equal(p[p], lanes)

    def test_all_steps_cover_all_cross_pairs(self):
        # over S/2 steps every lower lane meets every upper lane once
        size, half = 32, 16
        seen = set()
        for step in range(half):
            p = I.butterfly_partner(size, step)
            for lane in range(half):
                seen.add((lane, int(p[lane])))
        assert len(seen) == half * half

    def test_xor_partner_coverage(self):
        # XOR masks [16, 32) also pair every lower with every upper lane
        size, half = 32, 16
        seen = set()
        for step in range(half):
            p = I.xor_partner(size, half + step)
            for lane in range(half):
                seen.add((lane, int(p[lane])))
        assert len(seen) == half * half
