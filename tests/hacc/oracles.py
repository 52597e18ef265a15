"""Reference computations the hacc tests hold the product to.

None of these runs in a step: each is a second, simpler route to a
quantity the pipeline computes another way (a whole-list scatter, the
corrected kernel on every pair, the energy balance, a quadrature of the
kernel, the force-split fit error, the PM potential energy, sigma(R),
the cosmology integrals by adaptive quadrature, the pair search in
numpy), a check on one it uses (the difference-form field gradient,
exact when the corrected kernel gradient is), or the scoped backend
selection the op-counting tests use.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np
from scipy import integrate

from repro import xp
from repro.hacc.cosmology import Cosmology
from repro.hacc.mesh import cic_interpolate
from repro.hacc.neighbors import MIN_CELLS, pair_separations
from repro.hacc.particles import ParticleData
from repro.hacc.pm import PMSolver
from repro.hacc.power import TRANSFER_FUNCTIONS, PowerSpectrum
from repro.hacc.short_range import PolynomialForceKernel, exact_short_range_factor
from repro.hacc.sph.acceleration import AccelerationResult
from repro.hacc.sph.corrections import CorrectionResult, corrected_kernel_gradients
from repro.hacc.sph.energy import compute_energy_rate
from repro.hacc.sph.kernels_math import SUPPORT, cubic_spline
from repro.hacc.sph.pairs import PairContext


@contextmanager
def use_backend(name: str):
    """Scoped backend selection; restores the previous one on exit."""
    previous = xp.get_backend()
    try:
        yield xp.set_backend(name)
    finally:
        xp.set_backend(previous.name)


def scatter_sum(ctx: PairContext, values: np.ndarray) -> np.ndarray:
    """Sum whole-list pair values into per-particle accumulators
    over i.

    ``values`` may be (m,) or (m, k); returns (n,) or (n, k) in the
    *input dtype* (float32 pair values accumulate as float32
    instead of silently upcasting to float64).  This is the
    vectorised analogue of the GPU kernels' atomic adds; a
    particle's terms add in pair-list order, so equal inputs give
    bit-equal sums -- the sums a pass over :meth:`PairContext.blocks`
    gives.
    """
    values = np.asarray(values)
    out = xp.zeros((ctx.n,) + values.shape[1:], dtype=values.dtype)
    if ctx.n_pairs:
        out[ctx.ids] = xp.segment_sum(values, ctx.starts)
    return out


def corrected_kernel_values(
    ctx: PairContext, h: np.ndarray, corr: CorrectionResult
) -> np.ndarray:
    """W^R_ij = A_i (1 + B_i . (x_i - x_j)) W_ij on all pairs."""
    w = ctx.kernel_values(h)
    lin = 1.0 + xp.rowwise_dot(corr.b[ctx.i], ctx.dx)
    return corr.a[ctx.i] * lin * w


def difference_gradient(
    ctx: PairContext,
    h: np.ndarray,
    corr: CorrectionResult,
    volume: np.ndarray,
    field: np.ndarray,
) -> np.ndarray:
    """grad F_i = sum_j V_j (F_j - F_i) grad_i W^R_ij on all pairs, the
    difference-form gradient (pysph's ``GradPhi``): exact for linear
    fields when the grad W^R that Acceleration reads is right.

    ``field`` is (n,) or (n, k); returns (n, 3) or (n, k, 3) with
    ``out[p, a, b] = dF_a / dx_b``.
    """
    gw = corrected_kernel_gradients(ctx, h, corr)
    field = np.asarray(field, dtype=np.float64)
    diff = field[ctx.j] - field[ctx.i]
    vj = volume[ctx.j]
    if diff.ndim == 1:
        return scatter_sum(ctx, (vj * diff)[:, None] * gw)
    return scatter_sum(ctx, (vj[:, None] * diff)[:, :, None] * gw[:, None, :])


def pairwise_energy_balance(
    ctx: PairContext,
    volume: np.ndarray,
    mass: np.ndarray,
    pressure: np.ndarray,
    velocity: np.ndarray,
    accel: AccelerationResult,
) -> float:
    """Residual of the total-energy balance.

    Computes d/dt (kinetic + thermal) from the two kernels' outputs;
    the compatible discretisation makes this zero to round-off.
    """
    energy = compute_energy_rate(ctx, volume, mass, pressure, velocity, accel)
    thermal_rate = float(np.sum(mass * energy.du_dt))
    kinetic_rate = float(np.sum(mass[:, None] * velocity * accel.dv_dt))
    return thermal_rate + kinetic_rate


def verify_normalisation(h: float = 1.0, n_samples: int = 200) -> float:
    """Quadrature of the kernel over its support (~1 when normalised)."""
    r = np.linspace(0.0, SUPPORT * h, n_samples)
    w = cubic_spline(r, np.full_like(r, h))
    return float(np.trapezoid(4.0 * np.pi * r**2 * w, r))


def max_fit_error(kernel: PolynomialForceKernel) -> float:
    """Max absolute error of the fit strictly inside the cutoff.

    The truncation error *at* the cutoff (where the kernel is
    clamped to zero) is a property of the force split, not of the
    polynomial fit, and is excluded here.
    """
    r = np.linspace(1e-3 * kernel.cutoff, 0.999 * kernel.cutoff, 2048)
    return float(np.max(np.abs(kernel(r) - exact_short_range_factor(r, kernel.r_s))))


def potential_energy(pm: PMSolver, particles: ParticleData) -> float:
    """Long-range potential energy: 0.5 sum m phi."""
    n_mesh = pm.config.n_mesh
    delta = pm.density_contrast(particles)
    delta_k = xp.rfftn(delta)
    rho_bar = particles.total_mass() / pm.box**3
    phi_k = pm.potential_k(delta_k, rho_bar)
    phi_mesh = xp.irfftn(phi_k, s=(n_mesh,) * 3, axes=(0, 1, 2))
    phi = cic_interpolate(phi_mesh, particles.positions, pm.box)
    return float(0.5 * np.sum(particles.mass * phi))


def sigma_r(power: PowerSpectrum, r: float, z: float = 0.0) -> float:
    """RMS top-hat density fluctuation at radius ``r`` (Mpc/h)."""
    if r <= 0:
        raise ValueError("radius must be positive")

    def integrand(lnk: float) -> float:
        k = np.exp(lnk)
        x = r * k
        w = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3
        return float(power(np.array(k), z) * w**2 * k**3)

    var, _err = integrate.quad(
        integrand, np.log(1e-5), np.log(50.0), epsabs=0.0, epsrel=1e-12, limit=400
    )
    return float(np.sqrt(var / (2.0 * np.pi**2)))


#: QUADPACK held to round-off: what the product's fixed rules must match
TIGHT_QUAD = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 1000}


def growth_factor(cosmology: Cosmology, a: float) -> float:
    """D(a) = H(a) int_0^a da' / (a' H(a'))^3, normalised to D(1) = 1,
    integrated in a' as written."""

    def unnormalised(a: float) -> float:
        value, _err = integrate.quad(
            lambda ap: 1.0 / (ap * cosmology.E(ap)) ** 3, 0.0, a, **TIGHT_QUAD
        )
        return cosmology.E(a) * value

    return float(unnormalised(a) / unnormalised(1.0))


def leapfrog_integral(cosmology: Cosmology, a0: float, a1: float, power: int) -> float:
    """int_a0^a1 da / (a^power H(a)): the drift (power 3) or kick (2)."""
    value, _err = integrate.quad(
        lambda a: 1.0 / (a**power * cosmology.H(a)), a0, a1, **TIGHT_QUAD
    )
    return float(value)


def sigma8_amplitude(cosmology: Cosmology, transfer: str) -> float:
    """The P(k) = A k^n_s T(k)^2 amplitude that puts sigma(8 Mpc/h) at
    sigma8, from the public transfer fit."""

    def integrand(lnk: float) -> float:
        k = np.exp(lnk)
        x = 8.0 * k
        w = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3
        t = TRANSFER_FUNCTIONS[transfer](np.array([k]), cosmology)[0]
        return float(k**cosmology.n_s * t**2 * w**2 * k**3)

    var, _err = integrate.quad(integrand, np.log(1e-5), np.log(50.0), **TIGHT_QUAD)
    return float(cosmology.sigma8**2 * 2.0 * np.pi**2 / var)


# -- the pair search in numpy ---------------------------------------------
#: the self cell followed by the 13 lexicographically-positive offsets
#: of the 27-cell stencil, in fixed offset-major order (dx outermost, dz
#: innermost): each unordered pair of distinct cells is scanned exactly
#: once (the self cell is deduplicated by the i < j filter)
HALF_STENCIL = np.array(
    [(0, 0, 0)]
    + [o for o in itertools.product((-1, 0, 1), repeat=3) if o > (0, 0, 0)],
    dtype=np.int64,
)


def cell_index(pos: np.ndarray, box: float, n_cells: int) -> np.ndarray:
    """(n, 3) cell of each particle on an ``n_cells``-per-side grid."""
    cell = np.floor((pos % box) / (box / n_cells)).astype(np.int64)
    return np.clip(cell, 0, n_cells - 1)


def numpy_find_pairs(pos, box, cutoff, n_cells=None):
    """``find_pairs`` as the numpy search computed it, order included:
    the order oracle of the compiled search.  ``n_cells`` is the grid per
    side (default: the one sized to ``cutoff``); below ``MIN_CELLS``, or
    with no particles, every pair is scanned row-major."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    if n_cells is None:
        n_cells = max(1, int(np.floor(box / cutoff)))
    if n_cells < MIN_CELLS or not len(pos):
        return _dense_pairs(pos, box, cutoff)
    cells = cell_index(pos, box, n_cells)
    flat = (cells[:, 0] * n_cells + cells[:, 1]) * n_cells + cells[:, 2]
    order = np.argsort(flat, kind="stable")
    boundaries = np.searchsorted(flat[order], np.arange(n_cells**3 + 1))
    rows, cols = [], []
    for k, offset in enumerate(HALF_STENCIL):
        ncell = (cells + offset) % n_cells
        nflat = (ncell[:, 0] * n_cells + ncell[:, 1]) * n_cells + ncell[:, 2]
        starts = boundaries[nflat]
        counts = boundaries[nflat + 1] - starts
        gi = np.repeat(np.arange(len(pos)), counts)
        # ragged ranges 0..counts[k] for every bucket: a global arange
        # minus each element's bucket offset
        shifts = np.cumsum(counts) - counts
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(shifts, counts)
        gj = order[np.repeat(starts, counts) + within]
        _d, r2 = pair_separations(pos, box, gi, gj)
        mask = r2 < cutoff * cutoff
        # cross-cell candidates already appear once per unordered pair;
        # only the self cell (offset 0) needs the index dedup
        if k == 0:
            mask &= gi < gj
        rows.append(gi[mask])
        cols.append(gj[mask])
    i, j = np.concatenate(rows), np.concatenate(cols)
    return np.concatenate([i, j]), np.concatenate([j, i])


def _dense_pairs(pos, box, cutoff):
    """Every pair, row-major over the upper triangle, with the per-axis
    in-place minimum image and ``r2`` accumulation of the blocked numpy
    search (256 rows a block)."""
    half = 0.5 * box
    columns = np.ascontiguousarray(pos.T)
    empty = np.empty(0, dtype=np.int64)
    rows, cols = [empty], [empty]
    for a0 in range(0, len(pos), 256):
        block = pos[a0 : a0 + 256]
        r2 = None
        for axis in range(3):
            d = block[:, axis, None] - columns[axis, None, a0:]
            d += half
            d %= box
            d -= half
            d *= d
            if r2 is None:
                r2 = d
            else:
                r2 += d
        mask = r2 < cutoff * cutoff
        m = len(block)
        mask[:, :m] &= np.triu(np.ones((m, m), dtype=bool), k=1)
        bi, bj = np.nonzero(mask)
        rows.append(bi + a0)
        cols.append(bj + a0)
    i, j = np.concatenate(rows), np.concatenate(cols)
    return np.concatenate([i, j]), np.concatenate([j, i])
