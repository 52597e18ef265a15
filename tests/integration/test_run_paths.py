"""One run path: every consumer of ``AdiabaticDriver.advance`` — and
the hand-stepped loop the benchmark keeps — ends in the same state.

The reference is the benchmark's idiom (``schedule()`` + ``step()``);
the arms are ``run()``, an ``advance()`` loop with a checkpoint hop in
the middle, the fault-free runner on one and on two ranks, a service job
and a service job preempted after its first step and resumed.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.hacc.neighbors import CellList, CellListCache
from repro.hacc.particles import Species
from repro.hacc.sph import acceleration, corrections
from repro.hacc.sph.pairs import PairContext, sph_cutoff
from repro.hacc.timestep import (
    GRAVITY_KERNEL,
    TIMER_NAMES,
    AdiabaticDriver,
    SimulationConfig,
)
from repro.resilience import SimulationCheckpoint, run_simulation
from repro.service import JobSpec, ServiceConfig, SimulationService

#: the size of tests/resilience's small config at the derived PM mesh,
#: which is what lets the service arm run it
CONFIG = SimulationConfig(n_per_side=6, n_steps=3)
FIELDS = (
    "a",
    "kinetic_energy",
    "thermal_energy",
    "total_momentum",
    "max_density_contrast",
)


def diagnostics_of(driver: AdiabaticDriver) -> dict[str, np.ndarray]:
    return {
        name: np.array([getattr(d, name) for d in driver.diagnostics])
        for name in FIELDS
    }


def state_sha256(driver: AdiabaticDriver) -> str:
    p = driver.particles
    digest = hashlib.sha256()
    for arr in (p.positions, p.velocities, p.u):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def hand_stepped() -> AdiabaticDriver:
    driver = AdiabaticDriver(CONFIG)
    schedule = driver.schedule()
    for i in range(CONFIG.n_steps):
        driver.step(float(schedule[i]), float(schedule[i + 1]))
    return driver


def _run():
    driver = AdiabaticDriver(CONFIG)
    driver.run()
    return diagnostics_of(driver), driver


def _advance_through_a_checkpoint():
    driver = AdiabaticDriver(CONFIG)
    assert driver.advance() is not None
    driver = SimulationCheckpoint.capture(driver).restore_driver()
    assert (driver.step_index, driver.finished) == (1, False)
    while not driver.finished:
        driver.advance()
    return diagnostics_of(driver), driver


def _one_rank():
    result = run_simulation(CONFIG, world_size=1)
    assert result.ok and not result.recovered
    return diagnostics_of(result.driver), result.driver


def _two_ranks():
    result = run_simulation(CONFIG, world_size=2, timeout=60.0)
    assert result.ok and not result.recovered
    return diagnostics_of(result.driver), result.driver


def _service_job(preempt: bool = False):
    spec = JobSpec(n_per_side=CONFIG.n_per_side, n_steps=CONFIG.n_steps)
    assert SimulationService._sim_config(spec) == CONFIG

    async def submit():
        service = SimulationService(ServiceConfig(workers=1))
        await service.start()
        try:
            job = await service.submit(spec)
            # granted at once; its first step takes far longer than a poll
            while preempt and not service.scheduler.preempt(job):
                await asyncio.sleep(0.001)
            result = await job.future
            assert job.preemptions == int(preempt)
            return result
        finally:
            await service.shutdown()

    return asyncio.run(submit()).products["diagnostics"], None


def _preempted_service_job():
    return _service_job(preempt=True)


@pytest.mark.parametrize(
    "arm",
    [
        _run,
        _advance_through_a_checkpoint,
        _one_rank,
        _two_ranks,
        _service_job,
        _preempted_service_job,
    ],
)
def test_every_run_path_ends_in_the_hand_stepped_state(arm, hand_stepped):
    diagnostics, driver = arm()
    reference = diagnostics_of(hand_stepped)
    for name in FIELDS:
        assert np.array_equal(diagnostics[name], reference[name]), name
    if driver is not None:
        assert driver.finished and driver.step_index == CONFIG.n_steps
        assert state_sha256(driver) == state_sha256(hand_stepped)


def test_cell_path_state_does_not_depend_on_search_history():
    """At 11 per side SPH takes the cell search (gravity does from 6),
    whose pair order (hence every segment sum) must be a function of the
    state alone: a checkpoint hop, dropped gravity and pair-list memos or
    a pair context rebuilt for every pass ends in the same bits."""
    config = SimulationConfig(n_per_side=11, n_steps=3, seed=7)

    straight = AdiabaticDriver(config)
    straight.run()

    hopped = AdiabaticDriver(config)
    hopped.advance()
    hopped = SimulationCheckpoint.capture(hopped).restore_driver()
    hopped.run()

    forgetful = AdiabaticDriver(config)
    while not forgetful.finished:
        forgetful.advance()
        # both memos: the kept gravity and the solver's pair list
        forgetful._gravity_state = None
        forgetful.short_range.clear_memo()

    contextless = AdiabaticDriver(config)
    _forget_context_before_every_pass(contextless)
    contextless.run()
    assert contextless.pair_cache.builds > straight.pair_cache.builds

    p = straight.particles
    gas = p.species_mask(Species.BARYON)
    _requested, cutoff = sph_cutoff(p.hsml[gas], p.box)
    assert CellList.build(p.positions[gas], p.box, cutoff).use_cells
    assert CellList.build(p.positions, p.box, straight.short_range.cutoff).use_cells
    assert state_sha256(hopped) == state_sha256(straight)
    assert state_sha256(forgetful) == state_sha256(straight)
    assert state_sha256(contextless) == state_sha256(straight)


def _forget_context_before_every_pass(driver: AdiabaticDriver) -> None:
    gas_view = driver._gas_view

    def fresh():
        driver._gas_context = None
        return gas_view()

    driver._gas_view = fresh


def test_corrupted_kernel_outputs_do_not_reach_a_kept_context():
    """The ``corrupt`` fault mutates hooked outputs in place.  Whatever
    it does to the state, the context kept for that state is the one a
    fresh build gives: a keeping and a rebuilding driver under the same
    corruption end in the same bits."""
    config = SimulationConfig(n_per_side=9, pm_mesh=36, n_steps=2, seed=7)

    def corrupt(_name, _step, outputs):
        for arr in outputs.values():
            arr *= 1.0 + 1e-3

    keeping, rebuilding = AdiabaticDriver(config), AdiabaticDriver(config)
    _forget_context_before_every_pass(rebuilding)
    for driver in (keeping, rebuilding):
        driver.kernel_hook = corrupt
        driver.run()
    # corrupted rates move no particle: the second step opens on a hit
    assert keeping.pair_cache.builds < rebuilding.pair_cache.builds
    assert state_sha256(keeping) == state_sha256(rebuilding)


#: (``PairContext.build``, ``CellListCache.get``, ∇W^R evaluations) per
#: step; ∇W^R is counted in whole passes over a context's rows
_COUNTED = ("build", "get", "grad")


def _counted_run(monkeypatch, **config) -> tuple[AdiabaticDriver, list[tuple]]:
    """Run ``config`` to its end; returns the driver and, per step, how
    often each of ``_COUNTED`` ran."""
    calls = dict.fromkeys(_COUNTED, 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    build = classmethod(counting("build", PairContext.build.__func__))
    monkeypatch.setattr(PairContext, "build", build)
    monkeypatch.setattr(CellListCache, "get", counting("get", CellListCache.get))
    evaluate = corrections.corrected_kernel_gradients

    def grad(ctx, h, corr, rows=slice(None)):
        # the fraction of the context's rows this block evaluates
        calls["grad"] += Fraction(len(range(ctx.n_pairs)[rows]), ctx.n_pairs)
        return evaluate(ctx, h, corr, rows)

    monkeypatch.setattr(acceleration, "corrected_kernel_gradients", grad)

    driver = AdiabaticDriver(
        SimulationConfig(n_per_side=9, pm_mesh=36, seed=7, **config)
    )
    per_step = []
    while not driver.finished:
        before = tuple(calls.values())
        driver.advance()
        per_step.append(tuple(b - a for a, b in zip(before, calls.values())))
    return driver, per_step


@pytest.fixture(scope="module")
def counted_steps():
    with pytest.MonkeyPatch.context() as patch:
        return _counted_run(patch, n_steps=3)


def test_a_step_evaluates_once_per_particle_state(counted_steps):
    """The post-drift pass of step k and the opening pass of step k+1
    see one gas state and share one pair context; ``upBarAc`` evaluates
    ∇W^R once in each hydro pass, opening and post-drift -- each a pass
    over every row, block by block.  Gravity bins once a step: its opening evaluation is a
    force-memo hit, which searches nothing."""
    _driver, per_step = counted_steps
    assert per_step == [(2, 4, 2), (1, 2, 2), (1, 2, 2)]


def test_workload_trace_is_the_one_hydro_rates_recorded(counted_steps):
    """Who calls the kernels moved, what is recorded did not: names,
    order, work-items and interactions per item as at the commit before
    the pass was written once (every priced figure reads this trace)."""
    driver, _per_step = counted_steps
    hydro = [(name, 729, 80.0) for name in TIMER_NAMES]
    drifted = [("upBarAcF", 729, 80.03017832647463), ("upBarDuF", 729, 80.03017832647463)]

    def gravity(per_item):
        return (GRAVITY_KERNEL, 1458, per_item)

    assert [
        (k.name, k.n_workitems, k.interactions_per_item)
        for k in driver.trace.invocations
    ] == (
        [gravity(17.078189300411523)] + hydro + [gravity(18.349794238683128)] * 2
        + hydro + [gravity(18.786008230452676)] * 2
        + hydro[:5] + drifted + [gravity(18.991769547325102)]
    )


def test_subcycles_build_one_context_per_distinct_state(monkeypatch):
    driver, per_step = _counted_run(
        monkeypatch, n_steps=2, max_subcycles=3, cfl_number=0.005
    )
    assert driver.last_subcycles == 3
    # opening state + three drifted ones; then the opening one is kept
    assert [builds for builds, _gets, _grads in per_step] == [4, 3]


def test_advance_past_the_end_is_a_no_op(hand_stepped):
    before = state_sha256(hand_stepped)
    assert hand_stepped.finished
    assert hand_stepped.advance() is None
    assert hand_stepped.step_index == CONFIG.n_steps
    assert len(hand_stepped.diagnostics) == CONFIG.n_steps
    assert state_sha256(hand_stepped) == before


def test_every_benchmark_layer_target_resolves():
    """``bench/layers.py`` skips a target it cannot resolve and reports
    the layer as zero; ``pytest bench`` is outside tier-1, so this is
    the guard that a refactor cannot silently blind the traced pass."""
    bench = str(Path(__file__).resolve().parents[2] / "bench")
    sys.path.insert(0, bench)
    try:
        import layers
    finally:
        sys.path.remove(bench)
    assert layers.TARGETS
    for span, path, attr, _before, _after in layers.TARGETS:
        assert callable(getattr(layers._resolve(path), attr, None)), (
            f"{span}: {path}.{attr} does not resolve"
        )
