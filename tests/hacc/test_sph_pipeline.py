"""Tests for the five CRK-SPH kernels: the paper's hot loop physics.

The decisive invariants:

- Geometry: volumes tile space (sum V ~ box volume on a uniform grid);
- Corrections: the CRK reproducing conditions (constants exact, linear
  fields exact);
- Extras: the density is m / V; the corrected kernel gradient the
  Acceleration reads makes the gradients of linear fields exact;
- Acceleration: exact momentum conservation; uniform pressure -> no
  force;
- Energy: the compatible pairing conserves total energy to round-off.
"""

import functools
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.hacc import eos
from repro.hacc.neighbors import CellList, find_pairs
from repro.hacc.sph.acceleration import compute_acceleration, pair_viscosity
from repro.hacc.sph.corrections import (
    compute_corrections,
    corrected_kernel_gradients,
    solve_coefficient_gradients,
)
from repro.hacc.sph.energy import compute_energy_rate
from repro.hacc.sph.extras import compute_extras
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.kernels_math import (
    SUPPORT,
    cubic_spline,
    cubic_spline_gradient,
    kernel_self_value,
)
from repro.hacc.sph.pairs import PAIR_BLOCK, PairContext
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.units import SPH_ETA
from tests.hacc.oracles import (
    cell_index,
    corrected_kernel_values,
    difference_gradient,
    pairwise_energy_balance,
    scatter_sum,
)


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
        out = scatter_sum(ctx, vals)
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
            assert np.allclose(scatter_sum(ctx, vals), ref, atol=1e-12)

    def test_scatter_sum_empty_context(self):
        ctx = PairContext.build(np.zeros((0, 3)), np.zeros(0), 10.0)
        assert scatter_sum(ctx, np.zeros(0)).shape == (0,)

    def test_scatter_sum_isolated_particles_get_zero(self):
        # particles with no neighbours must stay exactly zero under the
        # segmented reduction (empty segments are skipped, not aliased)
        pos = np.array([[1.0, 1.0, 1.0], [1.4, 1.0, 1.0], [8.0, 8.0, 8.0]])
        ctx = PairContext.build(pos, np.full(3, 0.5), 10.0)
        out = scatter_sum(ctx, np.ones(ctx.n_pairs))
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

        total = scatter_sum(ctx, vj * wr) + corrections.a * geometry.volume * kernel_self_value(h)
        assert np.allclose(total, 1.0, atol=1e-10)

    def test_first_order_reproducing_condition(self, state, geometry, corrections):
        # sum_j V_j (x_j - x_i) W^R_ij = 0 exactly (linear reproduction)
        _pos, h, ctx, _box = state
        wr = corrected_kernel_values(ctx, h, corrections)
        vj = geometry.volume[ctx.j]
        moment = scatter_sum(ctx, (vj * wr)[:, None] * (-ctx.dx))
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
    def test_density_is_mass_over_volume(self, state, geometry):
        _pos, _h, ctx, _box = state
        mass = np.full(ctx.n, 2.0)
        extras = compute_extras(ctx, geometry.volume, mass)
        assert np.allclose(extras.rho, mass / geometry.volume)

    def test_non_positive_volume_refused(self, state, geometry):
        _pos, _h, ctx, _box = state
        volume = geometry.volume.copy()
        volume[3] = 0.0
        with pytest.raises(FloatingPointError):
            compute_extras(ctx, volume, np.ones(ctx.n))

    # Extras forms no gradient; these two hold the grad W^R that
    # Acceleration reads, through the difference-form gradient it makes
    # exact (tests.hacc.oracles.difference_gradient)

    def test_linear_field_gradient_exact(self, state, geometry, corrections):
        pos, h, ctx, _box = state
        grad_direction = np.array([0.3, -0.2, 0.5])
        # an affine pressure field; CRK gradients are exact for it
        pressure = 2.0 + pos @ grad_direction
        grad_p = difference_gradient(ctx, h, corrections, geometry.volume, pressure)
        # interior particles (periodic wrap breaks affinity at the seam)
        margin = SUPPORT * h.max()
        interior = np.all(
            (pos > margin) & (pos < state[3] - margin), axis=1
        )
        assert interior.sum() > 5
        assert np.allclose(grad_p[interior], grad_direction, atol=1e-7)

    def test_constant_velocity_zero_divergence(self, state, geometry, corrections):
        _pos, h, ctx, _box = state
        vel = np.tile([1.0, 2.0, 3.0], (ctx.n, 1))
        grad_v = difference_gradient(ctx, h, corrections, geometry.volume, vel)
        assert np.abs(np.trace(grad_v, axis1=1, axis2=2)).max() < 1e-9


def _full_hydro_state(state, geometry):
    rng = np.random.default_rng(42)
    _pos, h, ctx, _box = state
    n = ctx.n
    mass = geometry.volume * 1.2
    rho = mass / geometry.volume
    u = rng.uniform(0.5, 1.5, n)
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
    """The search's list is a canonical half and its mirror; the pair
    context holds its rows in segment order with ``mirror`` naming each
    row's reverse -- indices from either search path, ``dx``/``r`` bit
    for bit -- and the kernels that lean on it agree with their
    from-scratch oracles.
    """

    @pytest.mark.parametrize("name", list(_mirror_configs()))
    def test_list_and_geometry_mirror(self, name):
        pos, box, h0, cells = _mirror_configs()[name]
        cutoff = SUPPORT * h0
        assert CellList.build(pos, box, cutoff).use_cells == cells
        # the search's layout, which gravity and FOF/DBSCAN read
        i, j = find_pairs(pos, box, cutoff)
        half = len(i) // 2
        assert len(i) == 2 * half
        assert np.array_equal(i[half:], j[:half])
        assert np.array_equal(j[half:], i[:half])
        # the context: the same rows, stably sorted by i
        ctx = PairContext.build(pos, np.full(len(pos), h0), box)
        pair = np.argsort(i, kind="stable")
        assert np.array_equal(ctx.i, i[pair]) and np.array_equal(ctx.j, j[pair])
        assert np.array_equal(ctx.ids, np.unique(i))
        assert np.array_equal(ctx.starts, np.searchsorted(ctx.i, ctx.ids))
        # mirror: an involution onto each row's reverse, geometry bitwise
        m = ctx.n_pairs
        assert np.array_equal(ctx.mirror[ctx.mirror], np.arange(m))
        assert np.array_equal(ctx.i[ctx.mirror], ctx.j)
        assert np.array_equal(ctx.j[ctx.mirror], ctx.i)
        assert np.array_equal(ctx.dx[ctx.mirror], -ctx.dx)
        assert np.array_equal(ctx.r[ctx.mirror], ctx.r)
        # geometry: the separation of the canonical half, negated on
        # the rows that came from the mirror half
        d = (pos[i[:half]] - pos[j[:half]] + 0.5 * box) % box - 0.5 * box
        d = np.concatenate([d, -d])[pair]
        assert np.array_equal(ctx.dx, d)
        assert np.array_equal(ctx.r, np.sqrt(np.einsum("pa,pa->p", d, d)))
        if "coincident" in name:
            assert np.count_nonzero(ctx.r == 0.0) >= 2

    def test_unmirrored_list_rejected(self, state):
        _pos, _h, ctx, _box = state
        m = ctx.n_pairs

        def context(rows, mirror):
            return PairContext(
                i=ctx.i[rows], j=ctx.j[rows], dx=ctx.dx[rows], r=ctx.r[rows],
                n=ctx.n, mirror=mirror,
            )

        # the same pairs and a valid mirror, out of segment order
        shuffle = np.random.default_rng(4).permutation(m)
        row_of = np.empty(m, dtype=np.int64)
        row_of[shuffle] = np.arange(m)
        with pytest.raises(ValueError, match="segment order"):
            context(shuffle, row_of[ctx.mirror[shuffle]])
        # in segment order, with two rows' mirrors swapped
        broken = ctx.mirror.copy()
        broken[[0, 1]] = broken[[1, 0]]
        with pytest.raises(ValueError, match="mirror"):
            context(np.arange(m), broken)
        with pytest.raises(ValueError, match="mirror"):  # a row without a reverse
            context(np.arange(m - 1), ctx.mirror[:-1])
        one_sided = np.flatnonzero(ctx.i < ctx.j)  # a cross list
        with pytest.raises(ValueError, match="mirror"):
            context(one_sided, np.arange(len(one_sided)))
        # a valid list is accepted as given
        assert np.array_equal(context(np.arange(m), ctx.mirror).starts, ctx.starts)

    def test_mirror_half_is_the_side_j_evaluation(self, state, corrections):
        _pos, h, ctx, _box = state
        g = corrected_kernel_gradients(ctx, h, corrections)
        assert np.array_equal(g[ctx.mirror], side_j_oracle(ctx, h, corrections))

    def test_moment_gradients_match_per_pair_oracle(self):
        # a disordered set: m1 and the delta-terms are far from zero.
        # The kernel's moment gradients (pair sums, delta-terms per
        # particle) must give the coefficient gradients the per-pair
        # formula gives
        rng = np.random.default_rng(8)
        box = 6.0
        pos = rng.uniform(0, box, (300, 3))
        h = rng.uniform(0.55, 0.75, 300)
        ctx = PairContext.build(pos, h, box)
        volume = compute_geometry(ctx, h).volume
        corr = compute_corrections(ctx, h, volume)
        assert np.abs(corr.m1).max() > 1e-3
        want = solve_coefficient_gradients(
            corr.m0, corr.m1, corr.m2, corr.a, corr.b,
            *per_pair_moment_gradients_oracle(ctx, h, volume),
        )
        for name, g, w in zip(("grad_a", "grad_b"), (corr.grad_a, corr.grad_b), want):
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
        assert np.array_equal(flux, -flux[ctx.mirror])


def _outputs(result) -> dict[str, np.ndarray]:
    return {k: v for k, v in vars(result).items() if isinstance(v, np.ndarray)}


def _every_kernel_output(state) -> dict[str, np.ndarray]:
    """Every array the five kernels return on ``state`` (both hydro
    passes run one Acceleration: it evaluates its own grad W^R)."""
    _pos, h, ctx, _box = state
    geo = compute_geometry(ctx, h)
    corr = compute_corrections(ctx, h, geo.volume)
    mass, rho, _u, pressure, cs, vel = _full_hydro_state(state, geo)
    extras = compute_extras(ctx, geo.volume, mass)
    accel = compute_acceleration(ctx, h, geo.volume, mass, rho, pressure, cs, vel, corr)
    energy = compute_energy_rate(ctx, geo.volume, mass, pressure, vel, accel)
    out = {}
    for kernel, result in (
        ("upGeo", geo), ("upCor", corr), ("upBarEx", extras),
        ("upBarAc", accel), ("upBarDu", energy),
    ):
        out.update({f"{kernel}.{k}": v for k, v in _outputs(result).items()})
    out["upBarAc.max_signal_speed"] = np.array(accel.max_signal_speed)
    return out


def _state_sha256(driver: AdiabaticDriver) -> str:
    p = driver.particles
    digest = hashlib.sha256()
    for arr in (p.positions, p.velocities, p.u):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _uniform_gas(n: int):
    """``n`` gas particles at uniform random positions, one per unit
    volume, at h = SPH_ETA (about 75 neighbours each); the SPH search
    takes the cell path from about 1 200 particles."""
    box = n ** (1.0 / 3.0)
    pos = np.random.default_rng(3).uniform(0.0, box, (n, 3))
    return pos, np.full(n, SPH_ETA), box


def _traced_peak(fn):
    """(result, peak traced bytes above the call's start)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        out = fn()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base


def _largest_offset(cells: CellList) -> int:
    """Candidate pairs of the half-stencil offset with the most."""
    n = cells.n_cells
    flat = np.ravel_multi_index(cell_index(cells.pos, cells.box, n).T, (n, n, n))
    count = np.bincount(flat, minlength=n**3).reshape(n, n, n)
    return max(
        int((count * np.roll(count, tuple(-x for x in o), axis=(0, 1, 2))).sum())
        for o in itertools.product((-1, 0, 1), repeat=3)
        if o >= (0, 0, 0)
    )


@functools.cache
def _pass_transients(n: int):
    """Per pass over the pairs of :func:`_uniform_gas`, the traced peak
    above the call's start minus what the call returns: (pairs, blocks,
    largest stencil offset, {pass: bytes}).

    Allowances: Acceleration evaluates the whole list's grad W^R, an
    (m, 3) array, before the pass that reads each row's mirror.  The search's
    working memory (its cell arrays and pair buffer) is the compiled
    routine's C heap, which tracemalloc does not see: what is traced of
    it is the numpy side, its two output arrays."""
    pos, h, box = _uniform_gas(n)
    ctx = PairContext.build(pos, h, box)
    rng = np.random.default_rng(42)
    u = rng.uniform(0.5, 1.5, n)
    vel = rng.normal(0, 0.1, (n, 3))
    geo, peak = _traced_peak(lambda: compute_geometry(ctx, h))
    out = {"upGeo": peak}
    vol = geo.volume
    mass = 1.2 * vol
    rho = mass / vol
    pressure, cs = eos.pressure(rho, u), eos.sound_speed(rho, u)
    corr, out["upCor"] = _traced_peak(lambda: compute_corrections(ctx, h, vol))
    extras, out["upBarEx"] = _traced_peak(lambda: compute_extras(ctx, vol, mass))
    accel, out["upBarAc"] = _traced_peak(
        lambda: compute_acceleration(ctx, h, vol, mass, rho, pressure, cs, vel, corr)
    )
    out["upBarAc"] -= ctx.dx.nbytes  # its grad W^R: one float64 triple a row
    energy, out["upBarDu"] = _traced_peak(
        lambda: compute_energy_rate(ctx, vol, mass, pressure, vel, accel)
    )
    for kernel, result in (
        ("upGeo", geo), ("upCor", corr), ("upBarEx", extras),
        ("upBarAc", accel), ("upBarDu", energy),
    ):
        out[kernel] -= sum(a.nbytes for a in _outputs(result).values())
    cutoff = SUPPORT * SPH_ETA
    cells = CellList.build(pos, box, cutoff)
    assert cells.use_cells
    (i, j), peak = _traced_peak(lambda: find_pairs(pos, box, cutoff, cell_list=cells))
    out["search"] = peak - i.nbytes - j.nbytes
    return ctx.n_pairs, len(list(ctx.blocks())), _largest_offset(cells), out


class TestStreamingPass:
    """Every kernel streams the pair list in blocks of about
    ``PAIR_BLOCK`` rows that never split a particle's segment: per
    particle results do not depend on the block size, and what a pass
    allocates beyond its outputs is sized by the block, not the list."""

    BLOCK_SIZES = (1, 4099, 10**9)

    def test_blocks_tile_the_list_at_segment_starts(self, state, monkeypatch):
        _pos, _h, ctx, _box = state
        for block in self.BLOCK_SIZES:
            monkeypatch.setattr("repro.hacc.sph.pairs.PAIR_BLOCK", block)
            blocks = list(ctx.blocks())
            rows = [r for r, _s, _i in blocks]
            assert rows[0].start == 0 and rows[-1].stop == ctx.n_pairs
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            assert all(r.start in ctx.starts for r in rows)
            assert np.array_equal(
                np.concatenate([s + r.start for r, s, _i in blocks]), ctx.starts
            )
            assert np.array_equal(np.concatenate([i for _r, _s, i in blocks]), ctx.ids)
            assert all(ctx.i[r].base is not None for r in rows)  # views
            expected = {1: len(ctx.ids), 10**9: 1}.get(block, -(-ctx.n_pairs // block))
            assert len(blocks) == expected, block

    def test_kernel_outputs_do_not_depend_on_the_block_size(self, state, monkeypatch):
        runs = []
        for block in self.BLOCK_SIZES:
            monkeypatch.setattr("repro.hacc.sph.pairs.PAIR_BLOCK", block)
            runs.append(_every_kernel_output(state))
        # the five kernels' arrays and the signal speed: Extras returns
        # rho alone, and both hydro passes run one Acceleration path
        assert len(runs[0]) == 16
        for other in runs[1:]:
            assert other.keys() == runs[0].keys()
            for name, value in runs[0].items():
                assert np.array_equal(other[name], value), name

    def test_driver_state_does_not_depend_on_the_block_size(self, monkeypatch):
        shas = set()
        for block in self.BLOCK_SIZES:
            monkeypatch.setattr("repro.hacc.sph.pairs.PAIR_BLOCK", block)
            driver = AdiabaticDriver(SimulationConfig(n_per_side=9, n_steps=2, seed=7))
            driver.run()
            shas.add(_state_sha256(driver))
        assert len(shas) == 1

    def test_pass_peaks_are_block_sized(self):
        """Each kernel's transient stays under 80 float64 words per
        ``PAIR_BLOCK`` row (about 480 B measured for upCor, the largest:
        the 27-wide dm2 product and its factors), and the search's under
        12 words per candidate of one stencil offset (about 73 B
        measured) -- at least 8 blocks, and a list of more than 100 000
        pairs."""
        n_pairs, n_blocks, offset, transient = _pass_transients(1500)
        assert n_blocks >= 8 and n_pairs > 100_000
        for name, size in transient.items():
            bound = 96 * offset if name == "search" else 640 * PAIR_BLOCK
            assert size < bound, (name, size, bound)

    def test_pass_peaks_do_not_scale_with_the_pairs(self):
        """Twice the particles and pairs: every kernel's transient moves
        less than 10 % (the per-particle arrays: 7.5 % measured for
        upCor).  The search's unit, one offset's candidates, grows with
        the particle count; it is held to its bound at both sizes."""
        small, large = _pass_transients(1500), _pass_transients(3000)
        assert large[0] > 1.9 * small[0]
        for name, size in small[3].items():
            if name == "search":
                assert large[3][name] < 96 * large[2]
            else:
                assert abs(large[3][name] - size) < 0.1 * size, name
