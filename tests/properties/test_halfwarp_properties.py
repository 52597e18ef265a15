"""Property-based tests for the half-warp algorithm and variants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels.halfwarp import run_halfwarp
from repro.kernels.variants import ALL_VARIANTS
from tests.kernels.oracles import gravity_pair_function, reference_all_pairs

leaf_sizes = st.sampled_from([4, 8, 16])


@st.composite
def leaf_pair(draw):
    half = draw(leaf_sizes)
    payload = hnp.arrays(
        dtype=np.float64,
        shape=(4, half),
        elements=st.floats(0.1, 10.0, allow_nan=False),
    )
    return draw(payload), draw(payload)


@settings(max_examples=25, deadline=None)
@given(leaf_pair(), st.sampled_from([v.name for v in ALL_VARIANTS]))
def test_every_variant_matches_reference_on_random_leaves(case, variant_name):
    from repro.kernels.variants import variant_by_name

    a, b = case
    fn = gravity_pair_function(softening=0.1)
    ref = reference_all_pairs(a, b, fn)
    res = run_halfwarp(a, b, fn, variant_by_name(variant_name))
    assert np.allclose(res.leaf_a, ref.leaf_a, rtol=1e-10)
    assert np.allclose(res.leaf_b, ref.leaf_b, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(leaf_pair(), st.sampled_from(["xor", "butterfly"]))
def test_schedules_agree(case, schedule):
    from repro.kernels.variants import variant_by_name

    a, b = case
    fn = gravity_pair_function(softening=0.1)
    xor = run_halfwarp(a, b, fn, variant_by_name("select"), schedule="xor")
    other = run_halfwarp(a, b, fn, variant_by_name("select"), schedule=schedule)
    assert np.allclose(xor.leaf_a, other.leaf_a)
    assert np.allclose(xor.leaf_b, other.leaf_b)


@settings(max_examples=25, deadline=None)
@given(leaf_pair())
def test_antisymmetric_pair_function_cancels(case):
    """An antisymmetric contribution f(i,j) = -f(j,i) must sum to zero
    over both leaves -- the conservation property the pair-wise
    symmetry of the schedule guarantees."""
    from repro.kernels.variants import variant_by_name

    a, b = case

    def antisym(own, other):
        return own[0] - other[0]

    res = run_halfwarp(a, b, antisym, variant_by_name("select"))
    total = res.leaf_a.sum() + res.leaf_b.sum()
    scale = np.abs(res.leaf_a).sum() + np.abs(res.leaf_b).sum() + 1e-300
    assert abs(total) < 1e-9 * max(scale, 1.0)
