"""Tests for the cross-lane communication cost primitives."""

import math

import pytest

from repro.machine import shuffle
from repro.machine.registry import AURORA, FRONTIER, POLARIS


class TestSelect:
    def test_intel_cost_is_one_cycle_per_lane(self):
        # Figure 5: indirect register access
        assert shuffle.select_cycles(AURORA, 32) == pytest.approx(32.0)
        assert shuffle.select_cycles(AURORA, 16) == pytest.approx(16.0)

    def test_dedicated_hardware_is_flat_in_subgroup(self):
        assert shuffle.select_cycles(POLARIS, 32) == shuffle.select_cycles(
            POLARIS, 32, words=1
        )
        assert shuffle.select_cycles(FRONTIER, 32) == shuffle.select_cycles(
            FRONTIER, 64
        )

    def test_words_scale_linearly(self):
        assert shuffle.select_cycles(AURORA, 32, words=12) == pytest.approx(
            12 * shuffle.select_cycles(AURORA, 32)
        )


class TestBroadcast:
    def test_intel_broadcast_is_cheap(self):
        # Figure 6: register regioning is "very fast"
        assert shuffle.broadcast_cycles(AURORA) < shuffle.select_cycles(AURORA, 16) / 4


class TestReduce:
    def test_log2_tree_depth(self):
        r32 = shuffle.reduce_cycles(POLARIS, 32)
        # 5 steps of (shuffle + add)
        assert r32 == pytest.approx(
            5 * (POLARIS.dedicated_shuffle_cycles + POLARIS.fma_cycles)
        )

    def test_reduce_cheaper_than_shuffle_network_on_intel(self):
        # Section 5.1: group algorithms convey the pattern, enabling the
        # cheap lowering; a naive shuffle network would pay indirect access
        reduce = shuffle.reduce_cycles(AURORA, 32)
        naive = int(math.log2(32)) * shuffle.select_cycles(AURORA, 32)
        assert reduce < naive / 4


class TestVisaButterfly:
    def test_supported_only_on_intel(self):
        assert shuffle.visa_butterfly_cycles(AURORA, 1) > 0
        with pytest.raises(shuffle.UnsupportedOperation):
            shuffle.visa_butterfly_cycles(POLARIS, 1)
        with pytest.raises(shuffle.UnsupportedOperation):
            shuffle.visa_butterfly_cycles(FRONTIER, 1)

    def test_butterfly_beats_indirect_access(self):
        # Section 5.3.3: four movs vs one cycle per lane
        assert shuffle.visa_butterfly_cycles(AURORA, 1) < shuffle.select_cycles(
            AURORA, 32
        )
