"""CRK correction exactness, property-tested on every registered array backend.

The reproducing conditions are the correctness contract of the
Corrections kernel (Section 5): the corrected kernel W^R must
reproduce constant fields exactly (zeroth moment = 1), annihilate
linear moments (first moment = 0), and make the difference-form
gradient estimate exact for affine fields.  The properties run under
every backend registered in ``repro.xp`` when the suite is collected
(the ``numpy`` reference alone today), so a runtime registered later
is held to the same physics.

Tolerances: the 3x3 moment solves carry a relative Tikhonov
regularisation of 1e-8 (``M2_REGULARISATION``), so "exact" means
round-off *plus* that regularisation, i.e. residuals of order 1e-7.
"""

import numpy as np
import pytest

from repro import xp
from repro.hacc.sph.corrections import compute_corrections, corrected_kernel_gradients
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.kernels_math import SUPPORT, kernel_self_value
from repro.hacc.sph.pairs import PairContext
from tests.hacc.oracles import corrected_kernel_values, scatter_sum, use_backend

BACKENDS = xp.registered_backends()

BOX = 1.0
#: the smallest lattice whose kernel support fits the minimum image
N_SIDE = 6


def _jittered_lattice(rng, n_side=N_SIDE, box=BOX, jitter=0.25):
    grid = (np.indices((n_side,) * 3).reshape(3, -1).T + 0.5) * (box / n_side)
    noise = rng.uniform(-jitter, jitter, size=grid.shape) * (box / n_side)
    return (grid + noise) % box


@pytest.fixture(scope="module", params=BACKENDS)
def crk_state(request):
    """(backend, pos, h, ctx, volume, corrections) computed end to end
    under one backend: build, geometry iteration, correction solve."""
    backend = request.param
    with use_backend(backend):
        rng = np.random.default_rng(1234)
        pos = _jittered_lattice(rng)
        h = np.full(len(pos), 1.3 * BOX / N_SIDE)
        ctx = PairContext.build(pos, h, BOX)
        geo = compute_geometry(ctx, h)
        corr = compute_corrections(ctx, h, geo.volume)
    return backend, pos, h, ctx, geo.volume, corr


class TestReproducingConditions:
    def test_zeroth_moment_is_one(self, crk_state):
        # sum_j V_j W^R_ij + V_i W^R_ii = 1: constants are reproduced
        backend, _pos, h, ctx, volume, corr = crk_state
        with use_backend(backend):
            wr = corrected_kernel_values(ctx, h, corr)
            total = (
                scatter_sum(ctx, volume[ctx.j] * wr)
                + corr.a * volume * kernel_self_value(h)
            )
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_first_moment_is_zero(self, crk_state):
        # sum_j V_j (x_j - x_i) W^R_ij = 0: linear moments annihilated
        backend, _pos, h, ctx, volume, corr = crk_state
        with use_backend(backend):
            wr = corrected_kernel_values(ctx, h, corr)
            moment = scatter_sum(ctx, (volume[ctx.j] * wr)[:, None] * (-ctx.dx))
        assert np.abs(moment).max() < 1e-7 * np.abs(ctx.dx).max()

    def test_linear_field_gradient_is_exact(self, crk_state):
        # grad F_i = sum_j V_j (F_j - F_i) grad_i W^R_ij recovers the
        # slope of an affine field exactly; field differences are taken
        # through the minimum image so the periodic seam stays affine
        backend, _pos, h, ctx, volume, corr = crk_state
        slope = np.array([0.7, -0.4, 0.2])
        with use_backend(backend):
            gw = corrected_kernel_gradients(ctx, h, corr)
            df = (-ctx.dx) @ slope  # F_j - F_i, minimum image
            grad = scatter_sum(ctx, (volume[ctx.j] * df)[:, None] * gw)
        np.testing.assert_allclose(
            grad, np.tile(slope, (ctx.n, 1)), atol=2e-7
        )

    def test_constant_field_gradient_vanishes(self, crk_state):
        # the same estimator on a constant field is identically zero
        backend, _pos, h, ctx, volume, corr = crk_state
        with use_backend(backend):
            gw = corrected_kernel_gradients(ctx, h, corr)
            zero = volume[ctx.j] * 0.0
            grad = scatter_sum(ctx, zero[:, None] * gw)
        np.testing.assert_array_equal(grad, 0.0)
