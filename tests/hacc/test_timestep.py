"""Tests for the adiabatic driver (the dynamical time stepper)."""

import dataclasses

import numpy as np
import pytest

from repro.hacc.timestep import (
    GRAVITY_KERNEL,
    TIMER_NAMES,
    AdiabaticDriver,
    KernelInvocation,
    SimulationConfig,
    WorkloadTrace,
)


class TestSimulationConfig:
    def test_box_follows_paper_scaling(self):
        # box = 177 Mpc/h * n/512 keeps the mass resolution fixed
        assert SimulationConfig(n_per_side=512).box == pytest.approx(177.0)
        assert SimulationConfig(n_per_side=16).box == pytest.approx(177.0 / 32)

    def test_defaults_match_paper_schedule(self):
        c = SimulationConfig()
        assert c.z_initial == 200.0
        assert c.z_final == 50.0
        assert c.n_steps == 5


class TestPMMeshRule:
    """``pm_mesh=None`` is four mesh cells per particle spacing."""

    @pytest.mark.parametrize("n", range(4, 17))
    def test_default_mesh_is_unclamped_and_searched_by_cells(self, n):
        from repro.hacc.neighbors import CellList

        driver = AdiabaticDriver(SimulationConfig(n_per_side=n))
        assert driver.config.pm_mesh == 4 * n
        assert driver.short_range.cutoff == driver.pm.cutoff
        cells = CellList.build(
            driver.particles.positions, driver.config.box, driver.short_range.cutoff
        )
        assert cells.use_cells is (n >= 6)

    def test_resolved_mesh_is_the_explicit_one(self):
        from repro.hacc.confighash import config_hash

        derived = SimulationConfig(n_per_side=12)
        explicit = SimulationConfig(n_per_side=12, pm_mesh=48)
        assert derived == explicit and hash(derived) == hash(explicit)
        assert config_hash(derived) == config_hash(explicit)
        assert dataclasses.asdict(derived)["pm_mesh"] == 48
        # an explicit mesh wins
        assert SimulationConfig(n_per_side=12, pm_mesh=16).pm_mesh == 16


class TestWorkloadTrace:
    def test_record_and_group(self):
        t = WorkloadTrace()
        t.record("upGeo", 100, 60.0)
        t.record("upGeo", 100, 62.0)
        t.record("upCor", 100, 60.0)
        assert len(t.by_kernel()["upGeo"]) == 2
        assert t.total_interactions() == pytest.approx(100 * (60 + 62 + 60))

    def test_zero_workitems_ignored(self):
        t = WorkloadTrace()
        t.record("upGeo", 0, 60.0)
        assert t.invocations == []


class TestReferenceRun:
    """Checks against the session-scoped 5-step reference run."""

    def test_timer_call_pattern(self, reference_trace):
        by = reference_trace.by_kernel()
        # every hydro timer fires once per step; gravity twice (KDK)
        for timer in TIMER_NAMES:
            assert len(by[timer]) == 5, timer
        assert len(by[GRAVITY_KERNEL]) == 10

    def test_interactions_are_realistic(self, reference_trace):
        by = reference_trace.by_kernel()
        for timer in TIMER_NAMES:
            for inv in by[timer]:
                # SPH neighbour counts: tens to a few hundred directed
                assert 10 < inv.interactions_per_item < 1000

    def test_workitems_equal_gas_count(self, reference_trace, reference_driver):
        from repro.hacc.particles import Species

        n_gas = reference_driver.particles.count(Species.BARYON)
        for inv in reference_trace.by_kernel()["upGeo"]:
            assert inv.n_workitems == n_gas

    def test_momentum_conserved_through_run(self, reference_driver):
        mom = reference_driver.diagnostics[-1].total_momentum
        # compare against the momentum scale of the system
        p = reference_driver.particles
        scale = float(np.abs(p.mass[:, None] * p.velocities).sum())
        assert np.all(np.abs(mom) < 1e-6 * scale)

    def test_scale_factor_progression(self, reference_driver):
        a_values = [d.a for d in reference_driver.diagnostics]
        assert a_values == sorted(a_values)
        assert a_values[-1] == pytest.approx(1 / 51.0)

    def test_structure_grows(self, reference_driver):
        # gravitational collapse: kinetic energy grows from z=200 to 50
        ke = [d.kinetic_energy for d in reference_driver.diagnostics]
        assert ke[-1] > ke[0]

    def test_thermal_energy_positive(self, reference_driver):
        for d in reference_driver.diagnostics:
            assert d.thermal_energy > 0

    def test_positions_stay_in_box(self, reference_driver):
        p = reference_driver.particles
        assert np.all((p.positions >= 0) & (p.positions < p.box))

    def test_hydro_state_finite(self, reference_driver):
        p = reference_driver.particles
        from repro.hacc.particles import Species

        gas = p.species_mask(Species.BARYON)
        for field in ("rho", "u", "pressure", "cs", "volume", "hsml"):
            assert np.all(np.isfinite(p.arrays[field][gas])), field
        assert np.all(p.rho[gas] > 0)
        assert np.all(p.hsml[gas] > 0)


def test_step_builds_one_cell_list_per_pair_query():
    from repro.observability.metrics import MetricsRegistry

    driver = AdiabaticDriver(SimulationConfig(n_per_side=6))
    driver.metrics = MetricsRegistry()
    schedule = driver.schedule()
    driver.step(float(schedule[0]), float(schedule[1]))
    # a cold KDK step bins 4 lists: 2 gravity evaluations + 2 hydro
    # passes, each for its own positions ...
    assert driver.pair_cache.builds == 4
    driver.step(float(schedule[1]), float(schedule[2]))
    # ... a steady one 2: gravity and hydro each bin one list per
    # particle state, and the opening passes see the state the last
    # step's closing passes left
    assert driver.pair_cache.builds == 4 + 2
    counters = driver.metrics.snapshot()["counters"]
    assert counters["sim.pairs.cell_list.builds"] == 4 + 2


def test_negative_internal_energy_reaches_the_judge():
    """A kick writes ``u + du_dt * share`` as it is, with no floor at 0:
    an energy rate broken enough to drive gas below u = 0 (here upBarDu's
    ``du_dt`` scaled 10⁶-fold) is a FATAL ``thermo_violations`` alert on
    that step, not a silently clamped state."""
    from repro.hacc.particles import Species
    from repro.observability.health import THERMO_VIOLATIONS, Severity

    def inflate(name, _step, outputs):
        if name == "upBarDu":
            outputs["du_dt"] *= 1e6

    driver = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=2))
    driver.kernel_hook = inflate
    driver.advance()
    gas = driver.particles.species_mask(Species.BARYON)
    negative = np.count_nonzero(driver.particles.u[gas] < 0)
    assert negative > 0
    alerts = [a for a in driver.health.alerts if a.series == THERMO_VIOLATIONS]
    assert [(a.step, a.severity) for a in alerts] == [(0, Severity.FATAL)]
    assert alerts[0].value >= negative


class TestGravityMemo:
    """One gravity evaluation per particle state: the first
    ``_gravity()`` of a step repeats the last one of the step before, so
    the driver keeps it, and every call still reports to the trace and
    the hook."""

    #: small box: the dense pair search
    CONFIG = dict(n_per_side=6, pm_mesh=16, n_steps=3)

    @staticmethod
    def state(driver):
        p = driver.particles
        return p.positions.tobytes() + p.velocities.tobytes() + p.u.tobytes()

    @staticmethod
    def count_pm(driver) -> list[int]:
        """A one-element counter of the driver's PM solves."""
        calls = [0]
        solve = driver.pm.accelerations

        def counted(particles):
            calls[0] += 1
            return solve(particles)

        driver.pm.accelerations = counted
        return calls

    def test_a_steady_step_solves_pm_once(self):
        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        calls = self.count_pm(driver)
        per_step = []
        while not driver.finished:
            before = calls[0]
            driver.advance()
            per_step.append(calls[0] - before)
        assert per_step == [2, 1, 1]

    def test_the_hook_fires_on_both_calls_of_a_step(self):
        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        seen = []

        def hook(name, step, outputs):
            if name == GRAVITY_KERNEL:
                seen.append(step)

        driver.kernel_hook = hook
        driver.run()
        assert seen == [0, 0, 1, 1, 2, 2]

    def test_a_corrupted_closing_gravity_does_not_reach_the_next_opening(self):
        # the closing kick moves no particle: both drivers open step 1 on
        # the same positions, the corrupted one from its kept gravity
        def corrupt(name, step, outputs):
            calls.append(name)
            if name == GRAVITY_KERNEL and calls.count(name) == 2:
                outputs["acc"][:] = np.nan

        calls = []
        corrupted = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        corrupted.kernel_hook = corrupt
        clean = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        corrupted.advance()
        clean.advance()
        assert np.isnan(corrupted.particles.velocities).any()
        assert np.array_equal(corrupted.particles.positions, clean.particles.positions)
        solves = self.count_pm(corrupted)
        assert np.array_equal(corrupted._gravity(), clean._gravity())
        assert solves == [0]

    def test_a_restore_to_another_state_misses(self):
        from repro.resilience.restart import SimulationCheckpoint

        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        driver.advance()
        checkpoint = SimulationCheckpoint.capture(driver)
        driver.advance()  # keeps the gravity of step 1's closing state
        driver.restore(particles=checkpoint.particles(), step_index=1)
        solves = self.count_pm(driver)
        fresh = checkpoint.restore_driver()
        assert np.array_equal(driver._gravity(), fresh._gravity())
        assert solves == [1]

    def test_memo_does_not_change_the_trajectory(self):
        plain = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        cleared = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        gravity = cleared._gravity

        def forgetful_gravity():
            cleared.short_range.clear_memo()
            return gravity()

        cleared._gravity = forgetful_gravity
        plain.run()
        cleared.run()
        assert self.state(plain) == self.state(cleared)

    def test_steady_step_scatters_once(self, monkeypatch):
        import repro.hacc.short_range as sr

        class CountingXp:
            bincounts = 0

            def __getattr__(self, name):
                return getattr(sr_xp, name)

            def bincount(self, *args, **kwargs):
                self.bincounts += 1
                return sr_xp.bincount(*args, **kwargs)

        sr_xp = sr.xp
        counting = CountingXp()
        monkeypatch.setattr(sr, "xp", counting)
        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        schedule = driver.schedule()
        per_step = []
        for k in range(3):
            before = counting.bincounts
            driver.step(float(schedule[k]), float(schedule[k + 1]))
            per_step.append(counting.bincounts - before)
        # a scatter is one bincount per axis; the first step has no
        # previous evaluation to reuse
        assert per_step == [6, 3, 3]
        # ... while every evaluation still reports to the trace and hook
        assert len(driver.trace.by_kernel()[GRAVITY_KERNEL]) == 6

    def test_corrupting_hook_does_not_poison_the_next_evaluation(self):
        from repro.resilience.faults import FaultInjector, FaultPlan

        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        clean = driver._gravity()
        injector = FaultInjector(
            FaultPlan.parse("corrupt:kernel=upGravSR,mode=nan,count=50")
        )
        driver.kernel_hook = lambda name, step, outputs: injector.corrupt_kernel(
            name, step, 0, outputs
        )
        corrupted = driver._gravity()
        assert len(injector.fired) == 1 and np.isnan(corrupted).any()
        assert np.array_equal(driver._gravity(), clean)

    def test_restored_state_misses_by_value(self):
        from repro.resilience.restart import SimulationCheckpoint

        driver = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        schedule = driver.schedule()
        driver.step(float(schedule[0]), float(schedule[1]))
        checkpoint = SimulationCheckpoint.capture(driver)
        driver.run()
        resumed = AdiabaticDriver(SimulationConfig(**self.CONFIG))
        resumed.step(float(schedule[0]), float(schedule[1]))
        resumed.step(float(schedule[1]), float(schedule[2]))
        # roll back one step with the later state still memoised
        resumed.restore(
            particles=checkpoint.particles(), step_index=checkpoint.step_index
        )
        resumed.run()
        assert self.state(resumed) == self.state(driver)


class TestShortRangeCutoffClamp:
    """The short-range cutoff is the force split's, never clamped: a PM
    mesh too coarse for the minimum-image bound is refused."""

    def test_coarse_mesh_is_refused(self):
        # mesh 8 asks for a cutoff of 0.70 box: refused, not cut short
        with pytest.raises(ValueError, match="minimum-image"):
            AdiabaticDriver(SimulationConfig(n_per_side=6, pm_mesh=8))
        # mesh 12 asks for 0.469 box: inside the bound, built as asked
        driver = AdiabaticDriver(SimulationConfig(n_per_side=6, pm_mesh=12))
        assert driver.short_range.cutoff == driver.pm.cutoff

    @pytest.mark.parametrize(
        "pm_mesh", [None, 48], ids=["default", "48"]  # grav_default, hydro_fine
    )
    def test_benchmark_configs_are_not_clamped(self, pm_mesh):
        driver = AdiabaticDriver(SimulationConfig(n_per_side=12, pm_mesh=pm_mesh))
        assert driver.short_range.cutoff == driver.pm.cutoff
