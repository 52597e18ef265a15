"""One run path: every consumer of ``AdiabaticDriver.advance`` — and
the hand-stepped loop the benchmark keeps — ends in the same state.

The reference is the benchmark's idiom (``schedule()`` + ``step()``);
the arms are ``run()``, an ``advance()`` loop with a checkpoint hop in
the middle, the fault-free two-rank runner and a plain service job.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hacc.neighbors import CellList
from repro.hacc.particles import Species
from repro.hacc.sph.pairs import sph_cutoff
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience import SimulationCheckpoint, run_simulation
from repro.service import JobSpec, ServiceConfig, SimulationService

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.hacc.sph.pairs.CutoffTruncationWarning"
)

#: the small config of tests/resilience (== ``SimulationConfig.scaled(5,
#: n_steps=3)``, which is what lets the service arm run it)
CONFIG = SimulationConfig(n_per_side=5, pm_mesh=8, n_steps=3)
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


def _two_ranks():
    result = run_simulation(CONFIG, world_size=2, timeout=60.0)
    assert result.ok and not result.recovered
    return diagnostics_of(result.driver), result.driver


def _service_job():
    assert SimulationConfig.scaled(5, n_steps=3) == CONFIG

    async def submit():
        service = SimulationService(ServiceConfig(workers=1))
        await service.start()
        try:
            spec = JobSpec(n_per_side=CONFIG.n_per_side, n_steps=CONFIG.n_steps)
            return await (await service.submit(spec)).future
        finally:
            await service.shutdown()

    return asyncio.run(submit()).products["diagnostics"], None


@pytest.mark.parametrize(
    "arm", [_run, _advance_through_a_checkpoint, _two_ranks, _service_job]
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
    """At 9 per side SPH takes the cell search, whose pair order (hence
    every segment sum) must be a function of the state alone: a
    checkpoint hop or a dropped force memo ends in the same bits."""
    config = SimulationConfig(n_per_side=9, n_steps=3, seed=7)

    straight = AdiabaticDriver(config)
    straight.run()

    hopped = AdiabaticDriver(config)
    hopped.advance()
    hopped = SimulationCheckpoint.capture(hopped).restore_driver()
    hopped.run()

    forgetful = AdiabaticDriver(config)
    while not forgetful.finished:
        forgetful.advance()
        forgetful.short_range.clear_memo()

    p = straight.particles
    gas = p.species_mask(Species.BARYON)
    _requested, cutoff = sph_cutoff(p.hsml[gas], p.box)
    assert CellList.build(p.positions[gas], p.box, cutoff).use_cells
    assert state_sha256(hopped) == state_sha256(straight)
    assert state_sha256(forgetful) == state_sha256(straight)


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
