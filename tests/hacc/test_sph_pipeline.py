"""Tests for the five CRK-SPH kernels: the paper's hot loop physics.

The decisive invariants:

- Geometry: volumes tile space (sum V ~ box volume on a uniform grid);
- Corrections: the CRK reproducing conditions (constants exact, linear
  fields exact);
- Extras: gradients of linear fields are exact;
- Acceleration: exact momentum conservation; uniform pressure -> no
  force;
- Energy: the compatible pairing conserves total energy to round-off.
"""

import functools

import numpy as np
import pytest

from repro.hacc.neighbors import CellList, find_pairs
from repro.hacc.sph.acceleration import compute_acceleration, pair_viscosity
from repro.hacc.sph.corrections import (
    compute_corrections,
    compute_moment_gradients,
    corrected_kernel_gradients,
    corrected_kernel_values,
)
from repro.hacc.sph.energy import compute_energy_rate, pairwise_energy_balance
from repro.hacc.sph.extras import compute_extras
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.kernels_math import (
    SUPPORT,
    cubic_spline,
    cubic_spline_gradient,
    kernel_self_value,
)
from repro.hacc.sph.pairs import PairContext
from repro.hacc.units import SPH_ETA


def glass_state(n_side=8, box=8.0, jitter=0.15, seed=5):
    """A jittered lattice of gas particles with uniform h."""
    rng = np.random.default_rng(seed)
    cell = box / n_side
    coords = (np.arange(n_side) + 0.5) * cell
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    pos = (pos + rng.normal(0, jitter * cell, pos.shape)) % box
    h = np.full(len(pos), SPH_ETA * cell)
    ctx = PairContext.build(pos, h, box)
    return pos, h, ctx, box


@pytest.fixture(scope="module")
def state():
    return glass_state()


@pytest.fixture(scope="module")
def geometry(state):
    _pos, h, ctx, _box = state
    return compute_geometry(ctx, h)


@pytest.fixture(scope="module")
def corrections(state, geometry):
    _pos, h, ctx, _box = state
    return compute_corrections(ctx, h, geometry.volume)


class TestPairContext:
    def test_pairs_are_directed(self, state):
        _pos, _h, ctx, _box = state
        pairs = set(zip(ctx.i.tolist(), ctx.j.tolist()))
        assert all((j, i) in pairs for i, j in pairs)

    def test_cutoff_truncation_is_surfaced(self):
        # a smoothing length whose support exceeds the minimum-image
        # bound must warn and count, not silently shrink the kernel
        from repro.hacc.sph.pairs import CutoffTruncationWarning
        from repro.observability.metrics import MetricsRegistry

        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 4.0, (30, 3))
        h = np.full(30, 1.5)  # SUPPORT * h = 3.0 > 0.499 * 4.0
        registry = MetricsRegistry()
        with pytest.warns(CutoffTruncationWarning):
            PairContext.build(pos, h, 4.0, metrics=registry)
        assert registry.counter("sim.pairs.cutoff_truncated").value == 1

    def test_no_warning_inside_minimum_image_bound(self, recwarn):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 10.0, (30, 3))
        PairContext.build(pos, np.full(30, 0.5), 10.0)
        from repro.hacc.sph.pairs import CutoffTruncationWarning

        assert not any(
            isinstance(w.message, CutoffTruncationWarning) for w in recwarn.list
        )

    def test_build_on_shared_cell_list_subset_matches_plain(self, state):
        # the driver path: the gas rows of a two-species set, binned
        # alone at the SPH cutoff by the driver's counted source, give
        # the plain build's arrays
        from repro.hacc.neighbors import CellListCache

        pos, h, ctx, box = state
        cells = CellListCache(box)
        shared = PairContext.build(pos, h, box, cells=cells)
        assert cells.builds == 1
        assert shared.n == ctx.n
        for name in ("i", "j", "dx", "r"):
            assert np.array_equal(getattr(shared, name), getattr(ctx, name)), name

    def test_displacement_consistency(self, state):
        pos, _h, ctx, box = state
        half = 0.5 * box
        d = (pos[ctx.i] - pos[ctx.j] + half) % box - half
        assert np.allclose(d, ctx.dx)
        assert np.allclose(np.linalg.norm(ctx.dx, axis=1), ctx.r)

    def test_scatter_sum_matches_manual(self, state):
        _pos, _h, ctx, _box = state
        vals = np.ones(ctx.n_pairs)
        out = ctx.scatter_sum(vals)
        assert out.sum() == ctx.n_pairs

    def test_scatter_sum_matches_add_at(self, state):
        # the segmented reduceat must agree with the np.add.at scatter
        # it replaced, for every value rank the kernels use
        _pos, _h, ctx, _box = state
        rng = np.random.default_rng(11)
        for shape in [(ctx.n_pairs,), (ctx.n_pairs, 3), (ctx.n_pairs, 3, 3)]:
            vals = rng.normal(size=shape)
            ref = np.zeros((ctx.n,) + shape[1:])
            np.add.at(ref, ctx.i, vals)
            assert np.allclose(ctx.scatter_sum(vals), ref, atol=1e-12)

    def test_scatter_sum_empty_context(self):
        ctx = PairContext.build(np.zeros((0, 3)), np.zeros(0), 10.0)
        assert ctx.scatter_sum(np.zeros(0)).shape == (0,)

    def test_scatter_sum_isolated_particles_get_zero(self):
        # particles with no neighbours must stay exactly zero under the
        # segmented reduction (empty segments are skipped, not aliased)
        pos = np.array([[1.0, 1.0, 1.0], [1.4, 1.0, 1.0], [8.0, 8.0, 8.0]])
        ctx = PairContext.build(pos, np.full(3, 0.5), 10.0)
        out = ctx.scatter_sum(np.ones(ctx.n_pairs))
        assert out[2] == 0.0
        assert out[0] == 1.0 and out[1] == 1.0


class TestGeometry:
    def test_volumes_tile_space(self, state, geometry):
        _pos, _h, _ctx, box = state
        # inverse-number-density volumes should sum to ~box volume
        assert geometry.volume.sum() == pytest.approx(box**3, rel=0.05)

    def test_number_density_positive(self, geometry):
        assert np.all(geometry.number_density > 0)

    def test_h_update_moves_toward_target(self, state, geometry):
        _pos, h, _ctx, _box = state
        target = SPH_ETA * np.cbrt(geometry.volume)
        # relaxed update lies between old h and the target
        lo = np.minimum(h, target) - 1e-12
        hi = np.maximum(h, target) + 1e-12
        assert np.all((geometry.h_new >= lo) & (geometry.h_new <= hi))

    def test_mismatched_h_rejected(self, state):
        _pos, h, ctx, _box = state
        with pytest.raises(ValueError):
            compute_geometry(ctx, h[:-1])


class TestCorrections:
    def test_zeroth_order_reproducing_condition(self, state, geometry, corrections):
        # sum_j V_j W^R_ij + self term = 1 exactly
        _pos, h, ctx, _box = state
        wr = corrected_kernel_values(ctx, h, corrections)
        vj = geometry.volume[ctx.j]
        from repro.hacc.sph.kernels_math import kernel_self_value

        total = ctx.scatter_sum(vj * wr) + corrections.a * geometry.volume * kernel_self_value(h)
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_first_order_reproducing_condition(self, state, geometry, corrections):
        # sum_j V_j (x_j - x_i) W^R_ij = 0 exactly (linear reproduction)
        _pos, h, ctx, _box = state
        wr = corrected_kernel_values(ctx, h, corrections)
        vj = geometry.volume[ctx.j]
        moment = ctx.scatter_sum((vj * wr)[:, None] * (-ctx.dx))
        scale = np.abs(ctx.dx).max()
        # the 1e-8 Tikhonov regularisation of m2 bounds the residual
        assert np.abs(moment).max() < 1e-7 * scale

    def test_coefficients_near_identity_on_uniform_grid(self, corrections):
        # a near-uniform distribution needs only a small correction
        assert np.all(corrections.a > 0)
        assert np.median(np.abs(corrections.a - 1.0 / corrections.m0)) < np.median(
            corrections.a
        )

    def test_m2_symmetric(self, corrections):
        assert np.allclose(corrections.m2, np.swapaxes(corrections.m2, 1, 2))

    def test_degenerate_neighbourhood_falls_back(self):
        # two isolated particles: m2 is singular -> B = 0, A = 1/m0
        pos = np.array([[1.0, 1.0, 1.0], [1.4, 1.0, 1.0]])
        h = np.full(2, 0.5)
        ctx = PairContext.build(pos, h, 10.0)
        vol = np.full(2, 0.1)
        corr = compute_corrections(ctx, h, vol)
        assert np.all(np.isfinite(corr.a))
        assert np.all(np.isfinite(corr.b))


class TestExtras:
    def test_linear_field_gradient_exact(self, state, geometry, corrections):
        pos, h, ctx, _box = state
        grad_direction = np.array([0.3, -0.2, 0.5])
        # use an affine pressure field; CRK gradients are exact for it
        pressure = 2.0 + pos @ grad_direction
        mass = geometry.volume.copy()  # rho = 1
        vel = np.zeros((ctx.n, 3))
        extras = compute_extras(
            ctx, h, geometry.volume, mass, vel, pressure, corrections
        )
        # interior particles (periodic wrap breaks affinity at the seam)
        from repro.hacc.sph.kernels_math import SUPPORT

        margin = SUPPORT * h.max()
        interior = np.all(
            (pos > margin) & (pos < state[3] - margin), axis=1
        )
        assert interior.sum() > 5
        assert np.allclose(extras.grad_p[interior], grad_direction, atol=1e-7)

    def test_constant_velocity_zero_divergence(self, state, geometry, corrections):
        pos, h, ctx, _box = state
        vel = np.tile([1.0, 2.0, 3.0], (ctx.n, 1))
        extras = compute_extras(
            ctx,
            h,
            geometry.volume,
            geometry.volume,
            vel,
            np.ones(ctx.n),
            corrections,
        )
        assert np.abs(extras.div_v).max() < 1e-9

    def test_density_is_mass_over_volume(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        mass = np.full(ctx.n, 2.0)
        extras = compute_extras(
            ctx, h, geometry.volume, mass, np.zeros((ctx.n, 3)), np.ones(ctx.n), corrections
        )
        assert np.allclose(extras.rho, mass / geometry.volume)


def _full_hydro_state(state, geometry):
    rng = np.random.default_rng(42)
    _pos, h, ctx, _box = state
    n = ctx.n
    mass = geometry.volume * 1.2
    rho = mass / geometry.volume
    u = rng.uniform(0.5, 1.5, n)
    from repro.hacc import eos

    pressure = eos.pressure(rho, u)
    cs = eos.sound_speed(rho, u)
    vel = rng.normal(0, 0.1, (n, 3))
    return mass, rho, u, pressure, cs, vel


class TestAcceleration:
    def test_momentum_exactly_conserved(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geometry)
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        net = (mass[:, None] * accel.dv_dt).sum(axis=0)
        scale = np.abs(mass[:, None] * accel.dv_dt).sum()
        assert np.all(np.abs(net) < 1e-12 * max(scale, 1e-300))

    def test_viscosity_only_on_approach(self, state, geometry):
        _pos, h, ctx, _box = state
        mass, rho, _u, _p, cs, vel = _full_hydro_state(state, geometry)
        vdotx = np.einsum("ij,ij->i", vel[ctx.i] - vel[ctx.j], ctx.dx)
        visc = pair_viscosity(ctx, h, rho, cs, vdotx)
        assert np.all(visc >= 0.0)
        assert np.all(visc[vdotx >= 0] == 0.0)

    def test_viscosity_symmetric_under_pair_swap(self, state, geometry):
        _pos, h, ctx, _box = state
        mass, rho, _u, _p, cs, vel = _full_hydro_state(state, geometry)
        vdotx = np.einsum("ij,ij->i", vel[ctx.i] - vel[ctx.j], ctx.dx)
        visc = pair_viscosity(ctx, h, rho, cs, vdotx)
        lookup = {(a, b): v for a, b, v in zip(ctx.i.tolist(), ctx.j.tolist(), visc)}
        for (a, b), v in list(lookup.items())[:200]:
            assert lookup[(b, a)] == pytest.approx(v)

    def test_signal_speed_bounded_below_by_sound_speed(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geometry)
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        assert accel.max_signal_speed >= 2 * cs.min()


class TestEnergy:
    def test_total_energy_conserved_to_roundoff(self, state, geometry, corrections):
        # the compatible discretisation: d/dt(KE + TE) = 0 identically
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geometry)
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        residual = pairwise_energy_balance(
            ctx, geometry.volume, mass, pressure, vel, accel
        )
        scale = float(np.abs(mass[:, None] * vel * accel.dv_dt).sum())
        assert abs(residual) < 1e-10 * max(scale, 1e-300)

    def test_static_gas_no_heating(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, _vel = _full_hydro_state(state, geometry)
        vel = np.zeros((ctx.n, 3))
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        energy = compute_energy_rate(
            ctx, geometry.volume, mass, pressure, vel, accel
        )
        assert np.abs(energy.du_dt).max() == 0.0

    def test_compression_heats(self, state, geometry, corrections):
        # a uniformly contracting flow does positive compressive work
        pos, h, ctx, box = state
        mass, rho, _u, pressure, cs, _ = _full_hydro_state(state, geometry)
        centre = box / 2
        vel = -0.1 * ((pos - centre))
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        energy = compute_energy_rate(
            ctx, geometry.volume, mass, pressure, vel, accel
        )
        assert energy.du_dt.sum() > 0

    def test_mismatched_accel_rejected(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geometry)
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        other_ctx = PairContext.build(
            np.random.default_rng(0).uniform(0, 6, (10, 3)), np.full(10, 1.0), 6.0
        )
        with pytest.raises(ValueError):
            compute_energy_rate(
                other_ctx, geometry.volume[:10], mass[:10], pressure[:10], vel[:10], accel
            )


def side_j_oracle(ctx, h, corr):
    """grad_j W^R_ji evaluated from scratch on every row (j's
    coefficients, the reversed displacement): the second evaluation
    ``antisymmetric_gradients`` made before it read side j off the
    mirror half."""
    idx, d = ctx.j, -ctx.dx
    w = cubic_spline(ctx.r, h[idx])
    gw = cubic_spline_gradient(d, ctx.r, h[idx])
    a, b = corr.a[idx], corr.b[idx]
    lin = 1.0 + np.einsum("pa,pa->p", b, d)
    db_dot_d = np.einsum("pag,pa->pg", corr.grad_b[idx], d)
    coeff_term = corr.grad_a[idx] * lin[:, None] + a[:, None] * (db_dot_d + b)
    return coeff_term * w[:, None] + (a * lin)[:, None] * gw


def per_pair_moment_gradients_oracle(ctx, h, volume):
    """The moment gradients with the product rule's ``-delta W`` terms
    accumulated pair by pair (one neighbour loop, as pysph does)
    instead of read off m0 / m1."""
    w = cubic_spline(ctx.r, h[ctx.i])
    gw = cubic_spline_gradient(ctx.dx, ctx.r, h[ctx.i])
    vj = volume[ctx.j]
    vw = vj * w
    dji = -ctx.dx
    eye = np.eye(3)
    dm0 = np.zeros((ctx.n, 3))
    dm1 = -eye * (volume * kernel_self_value(h))[:, None, None]
    dm2 = np.zeros((ctx.n, 3, 3, 3))
    np.add.at(dm0, ctx.i, vj[:, None] * gw)
    np.add.at(
        dm1,
        ctx.i,
        vj[:, None, None] * dji[:, :, None] * gw[:, None, :]
        - eye * vw[:, None, None],
    )
    outer = dji[:, :, None] * dji[:, None, :]
    np.add.at(
        dm2,
        ctx.i,
        vj[:, None, None, None] * outer[:, :, :, None] * gw[:, None, None, :]
        - (
            eye[None, :, None, :] * dji[:, None, :, None]
            + eye[None, None, :, :] * dji[:, :, None, None]
        )
        * vw[:, None, None, None],
    )
    return dm0, dm1, dm2


@functools.cache
def _mirror_configs():
    rng = np.random.default_rng(23)
    glass11 = glass_state(n_side=11, box=11.0)[0]
    cloud = rng.uniform(0, 4.0, (40, 3))
    return {
        # 11 per side at h = SPH_ETA * spacing: 4 cells per side
        "cell path": (glass11, 11.0, SPH_ETA, True),
        "cell path, coincident": (
            np.concatenate([glass11, glass11[:50]]), 11.0, SPH_ETA, True
        ),
        "dense path": (cloud, 4.0, 0.9, False),
        "dense path, coincident": (
            np.concatenate([cloud, cloud[:7], cloud[:3]]), 4.0, 0.9, False
        ),
        "single, cell path": (np.array([[1.0, 2.0, 3.0]]), 4.0, 0.5, True),
        "single, dense path": (np.array([[1.0, 2.0, 3.0]]), 4.0, 0.9, False),
        "empty": (np.zeros((0, 3)), 4.0, 0.5, False),
    }


class TestMirrorContract:
    """Row ``half + k`` of a symmetric pair list is row k reversed --
    indices from either search path, ``dx``/``r`` bit for bit -- and
    the kernels that lean on it agree with their from-scratch oracles.
    """

    @pytest.mark.parametrize("name", list(_mirror_configs()))
    def test_list_and_geometry_mirror(self, name):
        pos, box, h0, cells = _mirror_configs()[name]
        cutoff = SUPPORT * h0
        assert CellList.build(pos, box, cutoff).use_cells == cells
        i, j = find_pairs(pos, box, cutoff)
        half = len(i) // 2
        assert len(i) == 2 * half
        assert np.array_equal(i[half:], j[:half])
        assert np.array_equal(j[half:], i[:half])
        ctx = PairContext.build(pos, np.full(len(pos), h0), box)
        assert np.array_equal(ctx.i, i) and np.array_equal(ctx.j, j)
        assert np.array_equal(ctx.dx[half:], -ctx.dx[:half])
        assert np.array_equal(ctx.r[half:], ctx.r[:half])
        d = (pos[ctx.i[:half]] - pos[ctx.j[:half]] + 0.5 * box) % box - 0.5 * box
        assert np.array_equal(ctx.dx[:half], d)
        assert np.array_equal(ctx.r[:half], np.sqrt(np.einsum("pa,pa->p", d, d)))
        if "coincident" in name:
            assert np.count_nonzero(ctx.r == 0.0) >= 2

    def test_unmirrored_list_rejected(self, state):
        _pos, _h, ctx, _box = state
        shuffle = np.random.default_rng(4).permutation(ctx.n_pairs)
        with pytest.raises(ValueError, match="mirror"):
            PairContext(
                i=ctx.i[shuffle], j=ctx.j[shuffle], dx=ctx.dx[shuffle],
                r=ctx.r[shuffle], n=ctx.n,
            )
        with pytest.raises(ValueError, match="mirror"):  # odd length
            PairContext(i=ctx.i[:-1], j=ctx.j[:-1], dx=ctx.dx[:-1], r=ctx.r[:-1], n=ctx.n)
        half = ctx.n_pairs // 2
        with pytest.raises(ValueError, match="mirror"):  # one-sided (cross) list
            PairContext(
                i=ctx.i[:half], j=ctx.j[:half], dx=ctx.dx[:half], r=ctx.r[:half],
                n=ctx.n,
            )

    def test_mirror_half_is_the_side_j_evaluation(self, state, corrections):
        _pos, h, ctx, _box = state
        g = corrected_kernel_gradients(ctx, h, corrections)
        oracle = side_j_oracle(ctx, h, corrections)
        half = ctx.n_pairs // 2
        assert np.array_equal(g[half:], oracle[:half])
        assert np.array_equal(g[:half], oracle[half:])

    def test_moment_gradients_match_per_pair_oracle(self):
        # a disordered set: m1 and the delta-terms are far from zero
        rng = np.random.default_rng(8)
        box = 6.0
        pos = rng.uniform(0, box, (300, 3))
        h = rng.uniform(0.55, 0.75, 300)
        ctx = PairContext.build(pos, h, box)
        volume = compute_geometry(ctx, h).volume
        corr = compute_corrections(ctx, h, volume)
        assert np.abs(corr.m1).max() > 1e-3
        got = compute_moment_gradients(ctx, h, volume, corr.m0, corr.m1)
        want = per_pair_moment_gradients_oracle(ctx, h, volume)
        for name, g, w in zip(("dm0", "dm1", "dm2"), got, want):
            assert g.shape == w.shape, name
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_pair_momentum_flux_is_bitwise_antisymmetric(
        self, state, geometry, corrections
    ):
        _pos, h, ctx, _box = state
        mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geometry)
        accel = compute_acceleration(
            ctx, h, geometry.volume, mass, rho, pressure, cs, vel, corrections
        )
        assert np.count_nonzero(accel.visc_pi) > 0
        vol = geometry.volume
        flux = (
            vol[ctx.i] * vol[ctx.j]
            * (pressure[ctx.i] + pressure[ctx.j] + accel.visc_pi)
        )[:, None] * accel.delta_gw
        half = ctx.n_pairs // 2
        assert np.array_equal(flux[:half], -flux[half:])

    def test_corrections_peak_memory_per_pair(self):
        import tracemalloc

        _pos, h, ctx, _box = glass_state(n_side=9, box=9.0)
        volume = compute_geometry(ctx, h).volume
        tracemalloc.start()
        try:
            compute_corrections(ctx, h, volume)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 561 measured: two (m, 3, 3, 3) temporaries (the dm2 terms and
        # their sorted gather) plus the (m, 3, 3) and (m, 3) factors;
        # with a per-pair delta-term and its sum it was 1017
        assert peak < 700 * ctx.n_pairs
