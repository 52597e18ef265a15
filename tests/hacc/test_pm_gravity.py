"""Tests for the PM Poisson solver and the short-range PP solver."""

import itertools

import numpy as np
import pytest
from scipy import special

from repro.hacc.neighbors import CellList, CellListCache, find_pairs
from repro.hacc.particles import ParticleData
from repro.hacc.pm import PMConfig, PMSolver
from repro.hacc.short_range import (
    POLY_ORDER,
    PolynomialForceKernel,
    ShortRangeSolver,
    exact_short_range_factor,
)
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.hacc.units import G_NEWTON


def two_body(box=20.0, sep=1.0):
    p = ParticleData.allocate(2, box=box)
    p.set_positions(np.array([[10.0, 10.0, 10.0], [10.0 + sep, 10.0, 10.0]]))
    p.arrays["mass"][:] = 1.0e10
    return p


def exact_direct_sum(solver, p):
    """The short-range force with the exact kernel S(r), pair by pair:
    the reference the fitted kernel is held to."""
    acc = np.zeros((len(p), 3))
    i, j = find_pairs(p.positions, solver.box, solver.cutoff)
    for a, b in zip(i.tolist(), j.tolist()):
        d = p.minimum_image(p.positions[a] - p.positions[b])
        r2 = d @ d + solver.softening**2
        r = np.sqrt(r2)
        s = exact_short_range_factor(r, solver.r_s)
        acc[a] -= G_NEWTON * p.mass[b] * s / (r2 * r) * d
    return acc


def full_list_oracle(solver, p):
    """The retired evaluation: both halves of the directed list, the
    mirror row with its own minimum-image wrap."""
    i, j = find_pairs(p.positions, solver.box, solver.cutoff)
    d = p.minimum_image(p.positions[i] - p.positions[j])
    r2 = np.einsum("ij,ij->i", d, d) + solver.softening**2
    r = np.sqrt(r2)
    f = -G_NEWTON * p.mass[j] * solver.kernel(r) / (r2 * r)
    contrib = f[:, None] * d
    return np.stack(
        [np.bincount(i, weights=contrib[:, a], minlength=len(p)) for a in range(3)],
        axis=1,
    )


def ewald_accelerations(pos, mass, box, alpha, *, real=True, reciprocal=True, n_k=14):
    """Periodic Newtonian accelerations (uniform neutralising background,
    as the PM solver's dropped k = 0 mode has) by Ewald summation at
    splitting parameter ``alpha``: the real-space half over the 27
    nearest images, the reciprocal half over |k| <= n_k 2 pi / box.
    At ``alpha = 1 / (2 r_s)`` the halves are the exact PP and PM
    halves of the force split."""
    acc = np.zeros((len(pos), 3))
    if real:
        d0 = pos[:, None, :] - pos[None, :, :]
        d0 = (d0 + 0.5 * box) % box - 0.5 * box
        for shift in itertools.product((-1, 0, 1), repeat=3):
            d = d0 + box * np.array(shift)
            r = np.sqrt(np.einsum("ija,ija->ij", d, d))
            home = not any(shift)
            if home:
                np.fill_diagonal(r, 1.0)
            s = special.erfc(alpha * r) + (
                2.0 * alpha * r / np.sqrt(np.pi) * np.exp(-((alpha * r) ** 2))
            )
            f = mass[None, :] * s / r**3
            if home:
                np.fill_diagonal(f, 0.0)
            acc -= G_NEWTON * np.einsum("ij,ija->ia", f, d)
    if reciprocal:
        m = np.arange(-n_k, n_k + 1)
        g = np.array(list(itertools.product(m, repeat=3)))
        g = g[(g * g).sum(axis=1) <= n_k * n_k]
        # one of each +-k pair (they contribute equally): the first
        # nonzero component positive, which also drops k = 0
        lead = g[np.arange(len(g)), np.argmax(g != 0, axis=1)]
        g = g[lead > 0]
        k = 2.0 * np.pi / box * g
        k2 = np.einsum("ka,ka->k", k, k)
        weight = 2.0 * np.exp(-k2 / (4.0 * alpha**2)) / k2
        phase = pos @ k.T
        cos, sin = np.cos(phase), np.sin(phase)
        # sum_j m_j sin(k . (x_i - x_j)) from the two structure factors
        pair_sin = sin * (mass @ cos) - cos * (mass @ sin)
        acc -= G_NEWTON * 4.0 * np.pi / box**3 * (pair_sin * weight) @ k
    return acc


def rms_error(got, want):
    """rms |got - want| over rms |want|."""
    return np.sqrt(np.mean(np.sum((got - want) ** 2, axis=1)) / np.mean(
        np.sum(want**2, axis=1)
    ))


class TestShortRangeFactor:
    def test_full_newtonian_at_zero(self):
        assert exact_short_range_factor(np.array([1e-6]), 1.0)[0] == pytest.approx(
            1.0, abs=1e-4
        )

    def test_vanishes_beyond_split_scale(self):
        assert exact_short_range_factor(np.array([8.0]), 1.0)[0] < 1e-5

    def test_monotone_decreasing(self):
        r = np.linspace(0.01, 6.0, 100)
        s = exact_short_range_factor(r, 1.0)
        assert np.all(np.diff(s) < 0)


class TestPolynomialKernel:
    def test_order_matches_appendix(self):
        # -DHACC_CUDA_POLY_ORDER=5
        k = PolynomialForceKernel.fit(1.0, 3.0)
        assert len(k.coefficients) == POLY_ORDER + 1

    def test_fit_error_small(self):
        k = PolynomialForceKernel.fit(1.0, 4.5)
        assert k.max_fit_error() < 2e-2

    def test_zero_beyond_cutoff(self):
        k = PolynomialForceKernel.fit(1.0, 3.0)
        assert k(np.array([3.5]))[0] == 0.0

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            PolynomialForceKernel.fit(0.0, 3.0)


class TestShortRangeSolver:
    def test_two_body_force_matches_filtered_newton(self):
        p = two_body(sep=0.5)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0, softening=1e-4)
        exact = exact_direct_sum(solver, p)
        r = 0.5
        expected = G_NEWTON * 1.0e10 / r**2 * exact_short_range_factor(
            np.array([r]), 1.0
        )[0]
        assert abs(exact[0, 0]) == pytest.approx(expected, rel=1e-3)
        acc = solver.accelerations(p)
        assert acc[0, 0] == pytest.approx(exact[0, 0], rel=2e-2)
        # attraction: particle 0 pulled toward +x
        assert acc[0, 0] > 0 and acc[1, 0] < 0

    def test_newtons_third_law(self, rng):
        p = ParticleData.allocate(20, box=20.0)
        p.set_positions(rng.uniform(8, 12, (20, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, 20)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        acc = solver.accelerations(p)
        net = (p.mass[:, None] * acc).sum(axis=0)
        scale = np.abs(p.mass[:, None] * acc).sum()
        assert np.all(np.abs(net) < 1e-10 * scale)

    def test_polynomial_matches_exact_path(self, rng):
        p = ParticleData.allocate(30, box=20.0)
        p.set_positions(rng.uniform(5, 15, (30, 3)))
        p.arrays["mass"][:] = 1e10
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        a_poly = solver.accelerations(p)
        a_exact = exact_direct_sum(solver, p)
        denom = np.abs(a_exact).max()
        assert np.allclose(a_poly, a_exact, atol=2e-2 * denom)

    def test_interaction_count(self):
        p = two_body(sep=0.5)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        assert solver.interaction_count(p) == 2

    def test_interaction_count_reuses_accelerations_pair_list(self, rng, monkeypatch):
        # the cost model and the force evaluation must build the pair
        # list exactly once per particle state
        import repro.hacc.short_range as sr

        p = ParticleData.allocate(25, box=20.0)
        p.set_positions(rng.uniform(5, 15, (25, 3)))
        p.arrays["mass"][:] = 1e10
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        calls = []
        real = sr.find_pairs
        monkeypatch.setattr(
            sr, "find_pairs", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        solver.accelerations(p)
        count = solver.interaction_count(p)
        assert len(calls) == 1
        assert count == len(real(p.positions, p.box, 3.0)[0])
        # a moved particle invalidates the memo
        moved = p.positions
        moved[0] = (moved[0] + 1.0) % p.box
        p.set_positions(moved)
        solver.interaction_count(p)
        assert len(calls) == 2

    def test_accelerations_accept_shared_cell_list(self, rng):
        p = ParticleData.allocate(30, box=20.0)
        p.set_positions(rng.uniform(2, 18, (30, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, 30)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        plain = solver.accelerations(p)
        solver.clear_memo()
        cells = CellListCache(p.box)
        shared = solver.accelerations(p, cells=cells)
        assert cells.builds == 1
        assert np.array_equal(plain, shared)


class TestPairContract:
    """One evaluation per unordered pair: the canonical half of the
    directed list is evaluated and its mirror gets the negated force."""

    @staticmethod
    def scattered(rng, n, box):
        p = ParticleData.allocate(n, box=box)
        p.set_positions(rng.uniform(0, box, (n, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, n)
        return p

    def test_boundary_pairs_are_antisymmetric_bitwise(self, rng):
        # 100 isolated equal-mass pairs, each straddling the x = 0 face,
        # in the benchmark's 12-per-side box (a second minimum-image
        # wrap of the mirror row is not its negation there): a
        # particle's acceleration is its one pair force
        box, k = 4.1484375, np.arange(100)
        unit = box / 40.0
        centre = np.column_stack([4.0 * (k // 10) + 2.0, 4.0 * (k % 10) + 2.0])
        a = np.column_stack(
            [40.0 - rng.uniform(0.05, 1.2, 100), centre + rng.uniform(-0.4, 0.4, (100, 2))]
        )
        b = np.column_stack(
            [rng.uniform(0.05, 1.2, 100), centre + rng.uniform(-0.4, 0.4, (100, 2))]
        )
        p = ParticleData.allocate(200, box=box)
        p.set_positions(np.concatenate([a, b]) * unit)
        p.arrays["mass"][:] = 1e10
        solver = ShortRangeSolver(box, r_s=unit, cutoff=3.0 * unit)
        assert solver.interaction_count(p) == 200
        acc = solver.accelerations(p)
        assert np.all(acc[:100, 0] > 0)  # pulled across the face
        assert np.array_equal(acc[100:], -acc[:100])

    @pytest.mark.parametrize("cutoff", [3.0, 7.0], ids=["cell", "dense"])
    def test_matches_the_full_list_evaluation(self, rng, cutoff):
        p = self.scattered(rng, 400, 20.0)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=cutoff)
        assert CellList.build(p.positions, p.box, cutoff).use_cells == (cutoff == 3.0)
        acc = solver.accelerations(p)
        oracle = full_list_oracle(solver, p)
        assert np.abs(acc - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_one_kernel_evaluation_of_the_canonical_half_per_miss(self, rng):
        p = self.scattered(rng, 300, 20.0)
        solver = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        rows = []
        fitted = solver.kernel
        solver.kernel = lambda r: rows.append(len(r)) or fitted(r)
        solver.accelerations(p)
        assert rows == [solver.interaction_count(p) // 2]
        solver.accelerations(p)
        assert len(rows) == 1


class TestStateMemo:
    """The per-state memo is keyed by value on everything the answer
    depends on and never hands out its own arrays."""

    @staticmethod
    def case(rng, n=30):
        p = ParticleData.allocate(n, box=20.0)
        p.set_positions(rng.uniform(5, 15, (n, 3)))
        p.arrays["mass"][:] = rng.uniform(1e9, 1e10, n)
        return p, ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)

    @staticmethod
    def fresh(solver, p):
        clean = ShortRangeSolver(
            solver.box, solver.r_s, solver.cutoff, softening=solver.softening
        )
        return clean.accelerations(p)

    def test_hit_skips_the_scatter_and_is_bit_equal(self, rng, monkeypatch):
        from repro import xp

        p, solver = self.case(rng)
        scatters = []
        real = xp.bincount
        # setitem, not setattr: xp resolves ops through a module
        # __getattr__, so setattr's undo would leave the op behind as a
        # real attribute that shadows dispatch for the rest of the session
        monkeypatch.setitem(
            vars(xp), "bincount", lambda *a, **k: scatters.append(1) or real(*a, **k)
        )
        first = solver.accelerations(p)
        assert len(scatters) == 3  # one per axis
        again = solver.accelerations(p)
        assert len(scatters) == 3
        assert again is not first and np.array_equal(again, first)

    def test_misses_when_masses_change(self, rng):
        p, solver = self.case(rng)
        before = solver.accelerations(p)
        p.arrays["mass"][:] *= 2.0  # in place: the memo must hold a copy
        after = solver.accelerations(p)
        assert np.array_equal(after, self.fresh(solver, p))
        assert not np.array_equal(after, before)

    def test_misses_when_softening_changes(self, rng):
        p, solver = self.case(rng)
        before = solver.accelerations(p)
        solver.softening = 0.5
        after = solver.accelerations(p)
        assert np.array_equal(after, self.fresh(solver, p))
        assert not np.array_equal(after, before)

    def test_misses_when_cutoff_changes(self, rng):
        p, solver = self.case(rng)
        wide = solver.interaction_count(p)
        solver.accelerations(p)
        solver.cutoff = 1.5
        assert solver.interaction_count(p) < wide
        # same force kernel, shorter pair list
        clean = ShortRangeSolver(p.box, r_s=1.0, cutoff=3.0)
        clean.cutoff = 1.5
        assert np.array_equal(solver.accelerations(p), clean.accelerations(p))

    def test_bins_only_when_it_searches(self, rng):
        p, solver = self.case(rng)
        cells = CellListCache(p.box)
        solver.accelerations(p, cells=cells)
        assert cells.builds == 1
        solver.accelerations(p, cells=cells)  # force memo hit
        assert cells.builds == 1
        p.arrays["mass"][:] *= 2.0  # force miss on a memoised pair list
        assert np.array_equal(solver.accelerations(p, cells=cells), self.fresh(solver, p))
        assert cells.builds == 1

    def test_corrupting_the_result_does_not_poison_the_memo(self, rng):
        p, solver = self.case(rng)
        clean = solver.accelerations(p).copy()
        for _ in range(3):  # the computed array, then memo hits
            acc = solver.accelerations(p)
            assert np.array_equal(acc, clean)
            acc[:] = np.nan


@pytest.fixture(scope="module")
def poisson_set():
    """The driver's 6-per-side particle set (432 particles, both
    species' masses) at Poisson positions, and its Ewald accelerations."""
    p = AdiabaticDriver(SimulationConfig(n_per_side=6)).particles
    # set_positions: ParticleData.positions is a copy
    p.set_positions(np.random.default_rng(1).uniform(0.0, p.box, (len(p), 3)))
    return p, ewald_accelerations(p.positions, p.mass, p.box, 5.0 / p.box)


class TestForceSplit:
    """PM + PP against a direct periodic sum: the split the driver
    configures is the force of the particles, to the stated bounds."""

    @staticmethod
    def driver(p, pm_mesh=None):
        config = SimulationConfig(n_per_side=6, pm_mesh=pm_mesh)
        return AdiabaticDriver(config, particles=p)

    @pytest.mark.parametrize("pm_mesh", [16, None, 48], ids=["16", "derived", "48"])
    def test_total_force_matches_ewald(self, poisson_set, pm_mesh):
        # measured 0.016, 0.011 (mesh 24) and 0.016
        p, ewald = poisson_set
        d = self.driver(p, pm_mesh)
        total = d.pm.accelerations(p) + d.short_range.accelerations(p)
        assert rms_error(total, ewald) <= 0.02

    def test_each_half_matches_its_ewald_half(self, poisson_set):
        p, _ewald = poisson_set
        d = self.driver(p)
        alpha = 1.0 / (2.0 * d.pm.split_scale)
        pp = ewald_accelerations(p.positions, p.mass, p.box, alpha, reciprocal=False)
        pm = ewald_accelerations(p.positions, p.mass, p.box, alpha, real=False)
        # measured 0.005: the degree-5 fit and the softening
        assert rms_error(d.short_range.accelerations(p), pp) <= 0.01
        # measured 0.054: CIC assignment and interpolation, undeconvolved
        assert rms_error(d.pm.accelerations(p), pm) <= 0.08


class TestPMSolver:
    def test_density_contrast_mean_zero(self, small_particles):
        pm = PMSolver(small_particles.box, PMConfig(n_mesh=8))
        delta = pm.density_contrast(small_particles)
        assert delta.mean() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_lattice_no_force(self):
        n = 8
        box = 10.0
        coords = (np.arange(n) + 0.5) * (box / n)
        gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
        p = ParticleData.allocate(n**3, box=box)
        p.set_positions(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))
        p.arrays["mass"][:] = 1.0
        pm = PMSolver(box, PMConfig(n_mesh=n))
        acc = pm.accelerations(p)
        assert np.abs(acc).max() < 1e-10

    def test_overdensity_attracts(self):
        # a clump at the box centre pulls a test particle toward it
        box = 32.0
        p = ParticleData.allocate(9, box=box)
        pos = np.full((9, 3), 16.0)
        pos[8] = [22.0, 16.0, 16.0]  # test particle to the +x side
        p.set_positions(pos)
        p.arrays["mass"][:8] = 1e12
        p.arrays["mass"][8] = 1.0
        pm = PMSolver(box, PMConfig(n_mesh=16, split_cells=2.0))
        acc = pm.accelerations(p)
        assert acc[8, 0] < 0  # pulled back toward the clump

    def test_cutoff_relates_to_split(self):
        pm = PMSolver(10.0, PMConfig(n_mesh=16, split_cells=1.25))
        assert pm.cutoff == pytest.approx(4.5 * pm.split_scale)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PMConfig(n_mesh=2)
        with pytest.raises(ValueError):
            PMConfig(split_cells=0.0)

    def test_potential_energy_negative_for_clustered(self):
        box = 32.0
        p = ParticleData.allocate(8, box=box)
        p.set_positions(np.full((8, 3), 16.0) + np.random.default_rng(0).normal(0, 0.5, (8, 3)))
        p.arrays["mass"][:] = 1e12
        pm = PMSolver(box, PMConfig(n_mesh=16))
        assert pm.potential_energy(p) < 0
