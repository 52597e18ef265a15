"""Benchmarks of the mini-app substrate itself.

Not a paper artefact: these measure the reproduction's own hot paths
(the vectorised SPH kernels and the trace-pricing pipeline) so
performance regressions in the library are visible.
"""

import numpy as np

from repro.hacc.sph.acceleration import compute_acceleration
from repro.hacc.sph.corrections import compute_corrections
from repro.hacc.sph.geometry import compute_geometry
from repro.hacc.sph.pairs import PairContext
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.adiabatic import price_trace
from repro.machine.registry import AURORA
from repro.proglang.model import ProgrammingModel


def _glass(n_side=8, box=8.0):
    rng = np.random.default_rng(3)
    cell = box / n_side
    coords = (np.arange(n_side) + 0.5) * cell
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    pos = (pos + rng.normal(0, 0.1 * cell, pos.shape)) % box
    h = np.full(len(pos), 1.3 * cell)
    return pos, h, box


def test_bench_pair_context(benchmark):
    pos, h, box = _glass()
    ctx = benchmark(PairContext.build, pos, h, box)
    assert ctx.n_pairs > 0


def test_bench_geometry_kernel(benchmark):
    pos, h, box = _glass()
    ctx = PairContext.build(pos, h, box)
    result = benchmark(compute_geometry, ctx, h)
    assert np.all(result.volume > 0)


def test_bench_corrections_kernel(benchmark):
    pos, h, box = _glass()
    ctx = PairContext.build(pos, h, box)
    geo = compute_geometry(ctx, h)
    result = benchmark(compute_corrections, ctx, h, geo.volume)
    assert np.all(np.isfinite(result.a))


def test_bench_acceleration_kernel(benchmark):
    pos, h, box = _glass()
    ctx = PairContext.build(pos, h, box)
    geo = compute_geometry(ctx, h)
    corr = compute_corrections(ctx, h, geo.volume)
    n = ctx.n
    mass = geo.volume * 1.1
    rho = mass / geo.volume
    pressure = np.full(n, 0.5)
    cs = np.full(n, 1.0)
    vel = np.zeros((n, 3))
    result = benchmark(
        compute_acceleration, ctx, h, geo.volume, mass, rho, pressure, cs, vel, corr
    )
    assert result.dv_dt.shape == (n, 3)


def test_bench_single_timestep(benchmark):
    def one_step():
        driver = AdiabaticDriver(SimulationConfig(n_per_side=6))
        schedule = driver.cosmology.step_schedule(
            driver.config.z_initial, driver.config.z_final, driver.config.n_steps
        )
        return driver.step(float(schedule[0]), float(schedule[1]))

    diag = benchmark.pedantic(one_step, rounds=1, iterations=1)
    assert diag.thermal_energy > 0


def test_bench_trace_pricing(benchmark, trace):
    report = benchmark(
        price_trace, trace, AURORA, ProgrammingModel.SYCL, "memory_object"
    )
    assert report.total_seconds > 0
