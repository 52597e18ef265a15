"""Tests for the half-warp algorithm (Figures 3 and 4)."""

import numpy as np
import pytest

from repro.kernels.halfwarp import HalfWarpResult, run_halfwarp
from repro.kernels.variants import ALL_VARIANTS, variant_by_name
from tests.kernels.oracles import density_pair_function, gravity_pair_function, reference_all_pairs


@pytest.fixture
def leaf_payloads(rng):
    """Two leaves of 16 particles with (x, y, z, m) payloads."""
    a = rng.random((4, 16))
    b = rng.random((4, 16)) + 0.5
    return a, b


class TestReference:
    def test_reference_counts_all_cross_pairs(self, leaf_payloads):
        a, b = leaf_payloads
        count_fn = lambda own, other: np.ones(own.shape[-1])
        ref = reference_all_pairs(a, b, count_fn)
        # every particle interacts with all 16 of the other leaf
        assert np.all(ref.leaf_a == 16)
        assert np.all(ref.leaf_b == 16)


class TestSchedules:
    @pytest.mark.parametrize("schedule", ["xor", "butterfly"])
    def test_gravity_matches_reference(self, leaf_payloads, schedule):
        a, b = leaf_payloads
        fn = gravity_pair_function(0.05)
        ref = reference_all_pairs(a, b, fn)
        res = run_halfwarp(a, b, fn, variant_by_name("select"), schedule=schedule)
        assert np.allclose(res.leaf_a, ref.leaf_a)
        assert np.allclose(res.leaf_b, ref.leaf_b)

    def test_density_matches_reference(self, leaf_payloads):
        a, b = leaf_payloads
        fn = density_pair_function(h=0.8)
        ref = reference_all_pairs(a, b, fn)
        res = run_halfwarp(a, b, fn, variant_by_name("select"))
        assert np.allclose(res.leaf_a, ref.leaf_a)
        assert np.allclose(res.leaf_b, ref.leaf_b)

    def test_unknown_schedule_rejected(self, leaf_payloads):
        a, b = leaf_payloads
        with pytest.raises(ValueError):
            run_halfwarp(a, b, gravity_pair_function(0.1), variant_by_name("select"), schedule="ring")


class TestVariantEquivalence:
    """Section 5.3: every variant computes identical physics (the
    one-line-macro interchangeability)."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
    def test_variant_matches_reference(self, leaf_payloads, variant):
        a, b = leaf_payloads
        fn = gravity_pair_function(0.05)
        ref = reference_all_pairs(a, b, fn)
        res = run_halfwarp(a, b, fn, variant)
        assert np.allclose(res.leaf_a, ref.leaf_a)
        assert np.allclose(res.leaf_b, ref.leaf_b)

    def test_all_variants_bitwise_consistent_physics(self, leaf_payloads):
        a, b = leaf_payloads
        fn = density_pair_function(h=1.0)
        results = [run_halfwarp(a, b, fn, v) for v in ALL_VARIANTS]
        for res in results[1:]:
            assert np.allclose(res.leaf_a, results[0].leaf_a, rtol=1e-12)
            assert np.allclose(res.leaf_b, results[0].leaf_b, rtol=1e-12)


class TestPairSymmetry:
    def test_symmetric_pair_function_gives_symmetric_totals(self, rng):
        # a symmetric contribution f(i,j) = f(j,i): both leaves must
        # accumulate the same total (the invariant of Figure 4)
        a = rng.random((3, 8))
        b = rng.random((3, 8))

        def sym(own, other):
            return np.sum((own - other) ** 2, axis=0)

        res = run_halfwarp(a, b, sym, variant_by_name("select"))
        assert res.leaf_a.sum() == pytest.approx(res.leaf_b.sum())

    def test_schedule_checks_cross_leaf_invariant(self, rng):
        # corrupting the schedule is caught by the invariant checks
        from repro.kernels import halfwarp as hw

        with pytest.raises(AssertionError):
            hw._check_cross_leaf(np.arange(32), 16)  # identity: no crossing


class TestInputValidation:
    def test_mismatched_payloads_rejected(self, rng):
        with pytest.raises(ValueError):
            run_halfwarp(
                rng.random((4, 16)),
                rng.random((4, 8)),
                gravity_pair_function(0.1),
                variant_by_name("select"),
            )

    def test_non_power_of_two_leaf_rejected(self, rng):
        with pytest.raises(ValueError):
            run_halfwarp(
                rng.random((4, 12)),
                rng.random((4, 12)),
                gravity_pair_function(0.1),
                variant_by_name("select"),
            )
