"""Tests for the deterministic fault injector."""

import numpy as np
import pytest

from repro.resilience.faults import (
    ANY_RANK,
    ANY_STEP,
    CheckpointWriteFault,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankKilled,
    plan_from_specs,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_corrupt_needs_kernel(self):
        with pytest.raises(ValueError, match="kernel="):
            FaultSpec(kind="corrupt_kernel")

    def test_corrupt_mode_validated(self):
        with pytest.raises(ValueError, match="corruption mode"):
            FaultSpec(kind="corrupt_kernel", kernel="upGeo", mode="gamma_ray")

    def test_stall_duration_validated(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="stall_collective", duration=0.0)

    def test_wildcards_match(self):
        spec = FaultSpec(kind="kill_rank")
        assert spec.matches_rank(0) and spec.matches_rank(7)
        assert spec.matches_step(0) and spec.matches_step(99)

    def test_pinned_targets_match_exactly(self):
        spec = FaultSpec(kind="kill_rank", rank=3, step=1)
        assert spec.matches_rank(3) and not spec.matches_rank(2)
        assert spec.matches_step(1) and not spec.matches_step(0)


class TestFaultPlanParse:
    def test_parse_kill_and_corrupt(self):
        plan = FaultPlan.parse(
            "kill:rank=3,step=1;corrupt:kernel=upBarAc,step=2,mode=nan", seed=11
        )
        assert plan.seed == 11
        assert len(plan.faults) == 2
        kill, corrupt = plan.faults
        assert kill.kind == "kill_rank" and kill.rank == 3 and kill.step == 1
        assert corrupt.kind == "corrupt_kernel"
        assert corrupt.kernel == "upBarAc" and corrupt.mode == "nan"

    def test_parse_stall_and_ckptfail(self):
        plan = FaultPlan.parse(
            "stall:rank=2,collective=allreduce,duration=0.5;ckptfail:step=2"
        )
        stall, ckpt = plan.faults
        assert stall.kind == "stall_collective"
        assert stall.collective == "allreduce" and stall.duration == 0.5
        assert ckpt.kind == "fail_checkpoint" and ckpt.step == 2

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("gremlin:rank=1")

    def test_parse_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            FaultPlan.parse("kill:rank=1,voltage=9000")

    def test_empty_plan(self):
        assert FaultPlan.parse("").faults == ()
        assert "empty" in FaultPlan.parse("").describe()

    def test_describe_lists_every_event(self):
        plan = FaultPlan.parse("kill:rank=3,step=1;ckptfail:")
        text = plan.describe()
        assert "kill_rank" in text and "fail_checkpoint" in text


class TestFaultInjector:
    def test_kill_fires_once_on_target(self):
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="kill_rank", rank=3, step=1)])
        )
        injector.on_step_start(rank=3, step=0)  # wrong step: no fire
        injector.on_step_start(rank=2, step=1)  # wrong rank: no fire
        with pytest.raises(RankKilled) as exc:
            injector.on_step_start(rank=3, step=1)
        assert exc.value.rank == 3 and exc.value.step == 1
        # one-shot: the same fault never refires (post-recovery replay)
        injector.on_step_start(rank=3, step=1)
        assert len(injector.fired) == 1
        assert injector.armed == []

    def test_nan_corruption_is_deterministic(self):
        def corrupt(seed):
            injector = FaultInjector(
                plan_from_specs(
                    [FaultSpec(kind="corrupt_kernel", kernel="upGeo", count=3)],
                    seed=seed,
                )
            )
            arr = np.arange(32, dtype=np.float64)
            injector.corrupt_kernel("upGeo", step=0, rank=0, outputs={"v": arr})
            return np.nonzero(np.isnan(arr))[0]

        a, b = corrupt(5), corrupt(5)
        assert np.array_equal(a, b)
        assert len(a) == 3

    def test_inf_and_bitflip_modes(self):
        inf_inj = FaultInjector(
            plan_from_specs(
                [FaultSpec(kind="corrupt_kernel", kernel="k", mode="inf")]
            )
        )
        arr = np.ones(8)
        inf_inj.corrupt_kernel("k", 0, 0, {"v": arr})
        assert np.isinf(arr).sum() == 1

        flip_inj = FaultInjector(
            plan_from_specs(
                [FaultSpec(kind="corrupt_kernel", kernel="k", mode="bitflip")]
            )
        )
        arr = np.ones(8)
        flip_inj.corrupt_kernel("k", 0, 0, {"v": arr})
        # silent corruption: the value changes but typically stays finite
        assert (arr != 1.0).sum() == 1

    def test_corruption_requires_matching_kernel(self):
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="corrupt_kernel", kernel="upBarAc")])
        )
        arr = np.ones(4)
        assert injector.corrupt_kernel("upGeo", 0, 0, {"v": arr}) is None
        assert not np.isnan(arr).any()

    def test_checkpoint_write_fault_tears_tmp(self, tmp_path):
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="fail_checkpoint", step=2)])
        )
        tmp = tmp_path / "x.tmp"
        injector.fail_checkpoint_write(step=1, tmp_path=tmp)  # wrong step
        assert not tmp.exists()
        with pytest.raises(CheckpointWriteFault):
            injector.fail_checkpoint_write(step=2, tmp_path=tmp)
        assert tmp.exists()  # torn bytes landed in the temp file only

    def test_collective_hook_claims_stall(self):
        injector = FaultInjector(
            plan_from_specs(
                [
                    FaultSpec(
                        kind="stall_collective",
                        rank=1,
                        collective="allreduce",
                        duration=0.01,
                    )
                ]
            )
        )
        hook = injector.collective_hook()
        hook("barrier", 1)  # wrong collective
        hook("allreduce", 0)  # wrong rank
        assert injector.fired == []
        hook("allreduce", 1)
        assert len(injector.fired) == 1

    def test_summary_reports_fired_events(self):
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="kill_rank", rank=0, step=0)])
        )
        assert "nothing fired" in injector.summary()
        with pytest.raises(RankKilled):
            injector.on_step_start(0, 0)
        assert "kill_rank" in injector.summary()

    def test_wildcard_constants_exported(self):
        assert ANY_RANK == -1 and ANY_STEP == -1


class TestLeakFaults:
    def test_parse_leak(self):
        plan = FaultPlan.parse("leak:step=3,rate=0.12,count=3")
        (spec,) = plan.faults
        assert spec.kind == "leak_energy"
        assert spec.step == 3 and spec.rate == 0.12 and spec.count == 3

    def test_parse_leak_energy_alias(self):
        plan = FaultPlan.parse("leak_energy:step=1")
        assert plan.faults[0].kind == "leak_energy"
        assert plan.faults[0].rate == 0.05  # default

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="leak rate"):
            FaultSpec(kind="leak_energy", rate=1.5)
        with pytest.raises(ValueError, match="leak rate"):
            FaultSpec(kind="leak_energy", rate=0.0)

    def test_count_validated(self):
        with pytest.raises(ValueError, match="step count"):
            FaultSpec(kind="leak_energy", count=0)

    def test_describe_shows_window(self):
        spec = FaultSpec(kind="leak_energy", step=3, rate=0.12, count=3)
        assert "rate=0.12" in spec.describe()
        assert "count=3" in spec.describe()

    def _driver(self):
        from repro.hacc.timestep import AdiabaticDriver, SimulationConfig

        return AdiabaticDriver(SimulationConfig(n_per_side=6))

    def test_drain_applies_only_inside_window(self):
        driver = self._driver()
        plan = plan_from_specs([FaultSpec(kind="leak_energy", step=2, rate=0.5, count=2)])
        injector = FaultInjector(plan)
        u_before = driver.particles.u.copy()
        assert not injector.drain_energy(driver, rank=0, step=1)
        np.testing.assert_array_equal(driver.particles.u, u_before)
        assert injector.drain_energy(driver, rank=0, step=2)
        np.testing.assert_allclose(driver.particles.u, 0.5 * u_before)
        assert injector.drain_energy(driver, rank=0, step=3)
        assert not injector.drain_energy(driver, rank=0, step=4)

    def test_drain_is_rank_agnostic_and_deterministic(self):
        """Replicated lockstep ranks must apply the identical drain, so
        the leak ignores rank targeting."""
        d0, d1 = self._driver(), self._driver()
        plan = plan_from_specs([FaultSpec(kind="leak_energy", step=1, rank=0, rate=0.2)])
        inj = FaultInjector(plan)
        assert inj.drain_energy(d0, rank=0, step=1)
        assert inj.drain_energy(d1, rank=1, step=1)
        np.testing.assert_array_equal(d0.particles.u, d1.particles.u)

    def test_drain_updates_thermodynamics(self):
        driver = self._driver()
        plan = plan_from_specs([FaultSpec(kind="leak_energy", step=0, rate=0.3)])
        pressure_before = driver.particles.pressure.copy()
        FaultInjector(plan).drain_energy(driver, rank=0, step=0)
        assert (driver.particles.pressure <= pressure_before).all()
        assert (driver.particles.pressure < pressure_before).any()

    def test_reset_transients_cancels_fired_leak_only(self):
        driver = self._driver()
        fired_spec = FaultSpec(kind="leak_energy", step=0, rate=0.1)
        armed_spec = FaultSpec(kind="leak_energy", step=5, rate=0.1)
        injector = FaultInjector(plan_from_specs([fired_spec, armed_spec]))
        assert injector.drain_energy(driver, rank=0, step=0)
        injector.reset_transients()
        # the fired leak is neutralised...
        assert not injector.drain_energy(driver, rank=0, step=0)
        # ...but the unfired one stays armed
        assert injector.drain_energy(driver, rank=0, step=5)

    def test_leak_fires_one_audit_record(self):
        driver = self._driver()
        plan = plan_from_specs([FaultSpec(kind="leak_energy", step=0, rate=0.1, count=3)])
        injector = FaultInjector(plan)
        for step in range(3):
            injector.drain_energy(driver, rank=0, step=step)
        assert len(injector.fired) == 1
        assert "leak window opened" in injector.fired[0].detail
