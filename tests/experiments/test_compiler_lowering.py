"""Tests for the Section 5.3.1 compiler-lowering what-if study."""

import pytest

from repro.experiments.ablations import compiler_lowering_study
from tests.experiments.oracles import lowering_recovers


@pytest.fixture(scope="module")
def study(reference_trace):
    return compiler_lowering_study(reference_trace)


class TestCompilerLowering:
    def test_lowering_improves_out_of_box_pp(self, study):
        # the proposal's point: out-of-box migrated code gets better
        # without any source change
        assert study.pp_select_lowered > study.pp_select + 0.2

    def test_lowering_matches_hand_specialisation(self, study):
        # the lowering substitutes exactly what the hand-specialised
        # Select+Memory configuration does, so it recovers ~all of it
        assert study.pp_select_lowered == pytest.approx(
            study.pp_hand_specialised, abs=0.02
        )
        assert lowering_recovers(study) > 0.9

    def test_select_baseline_is_the_out_of_box_pp(self, study):
        assert 0.4 < study.pp_select < 0.8
