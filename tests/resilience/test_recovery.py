"""End-to-end recovery scenarios: the acceptance tests of the
resilience subsystem.

Every scenario is seeded and deterministic: the fault plan says which
rank dies (or which kernel emits NaNs) at which step, and the run must
recover from the last checkpoint and finish with a clean validation
report.
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.hacc.mpi_sim import RankFailure, SimWorld
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    SimulationAborted,
    run_simulation,
)

pytestmark = pytest.mark.faults


def small_config(n_steps: int = 3) -> SimulationConfig:
    return SimulationConfig(n_per_side=6, n_steps=n_steps)


@pytest.fixture(scope="module")
def fault_free_driver():
    """The reference the recovered runs must reproduce."""
    driver = AdiabaticDriver(small_config())
    driver.run()
    return driver


@pytest.mark.timeout(120)
class TestRankKillRecovery:
    def test_survivors_raise_rankfailure_not_deadlock(self):
        """Kill rank 3 in an 8-rank world: every survivor's collective
        raises RankFailure promptly instead of blocking forever."""
        world = SimWorld(8, timeout=30.0)
        survivors_failed = []

        def fn(comm):
            rank = comm.Get_rank()
            if rank == 3:
                raise RuntimeError("injected node failure")
            try:
                comm.allreduce(rank)
            except RankFailure as exc:
                assert 3 in exc.failed_ranks
                survivors_failed.append(rank)
                raise
            raise AssertionError("collective with a dead rank completed")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected node failure"):
            world.run(fn)
        assert time.monotonic() - start < 10.0  # woken, not timed out
        assert sorted(survivors_failed) == [r for r in range(8) if r != 3]
        assert 3 in world.obituaries
        assert "injected node failure" in world.obituaries[3].reason

    def test_kill_rank3_midstep_recovers_and_validates(self, tmp_path):
        """Acceptance: rank 3 dies at step 1 of an 8-rank run; the run
        restarts from the last SimulationCheckpoint and completes with
        RunValidator.ok == True."""
        result = run_simulation(
            small_config(),
            world_size=8,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse("kill:rank=3,step=1", seed=7),
        )
        assert result.recovered
        assert result.ok, result.report.summary()
        assert result.driver.step_index == 3

        failed, completed = result.attempts
        assert failed.outcome == "failed"
        assert "RankKilled" in failed.failure
        assert 3 in failed.dead_ranks
        # the survivors died of the induced RankFailure, not a hang
        assert failed.dead_ranks == tuple(range(8))
        assert completed.outcome == "completed"
        assert completed.restarted_from_step == 1

    def test_a_finished_run_keeps_only_its_result_driver(self, tmp_path, monkeypatch):
        """The drivers of dead ranks, failed attempts and non-lead
        replicas (each pinning what it memoised) are released by
        reference count when ``run_simulation`` returns; they do not
        wait for the cyclic collector."""
        built = []
        init = AdiabaticDriver.__init__

        def tracked(self, *args, **kwargs):
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(AdiabaticDriver, "__init__", tracked)
        gc.disable()
        try:
            result = run_simulation(
                small_config(),
                world_size=2,
                timeout=10.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                fault_plan=FaultPlan.parse("kill:rank=1,step=1", seed=7),
            )
            alive = [ref() for ref in built if ref() is not None]
        finally:
            gc.enable()
        assert [a.outcome for a in result.attempts] == ["failed", "completed"]
        assert len(built) == 4  # two ranks, one restart
        assert alive == [result.driver]


@pytest.mark.timeout(120)
class TestNaNInjectionRecovery:
    def test_nan_caught_same_step_and_recovery_matches_fault_free(
        self, tmp_path, fault_free_driver
    ):
        """Acceptance: an injected NaN is caught by the step guard the
        same step, the retry budget holds, and the recovered run's
        conserved quantities match a fault-free run."""
        result = run_simulation(
            small_config(),
            world_size=4,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse(
                "corrupt:kernel=upBarAc,step=2,rank=2,mode=nan", seed=3
            ),
            retry_policy=RetryPolicy(max_retries=2),
        )
        assert result.recovered
        assert result.ok, result.report.summary()
        # caught in-flight: exactly one failed attempt, at the faulted step
        failed = result.attempts[0]
        assert "GuardViolation" in failed.failure
        assert "step 2" in failed.failure
        assert len(result.attempts) == 2  # one retry, within budget

        # conserved quantities match the fault-free reference exactly
        for ref, got in zip(
            fault_free_driver.diagnostics, result.driver.diagnostics
        ):
            assert got.kinetic_energy == ref.kinetic_energy
            assert got.thermal_energy == ref.thermal_energy
            np.testing.assert_array_equal(got.total_momentum, ref.total_momentum)

    def test_silent_bitflip_detected_by_replica_divergence(self, tmp_path):
        """A finite bitflip slips past the NaN screen but cannot slip
        past cross-rank agreement (or the step gate)."""
        result = run_simulation(
            small_config(),
            world_size=4,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            fault_plan=FaultPlan.parse(
                "corrupt:kernel=upBarAc,step=1,rank=1,mode=bitflip", seed=5
            ),
        )
        assert result.recovered
        assert result.ok, result.report.summary()


@pytest.mark.timeout(120)
class TestOtherFaultKinds:
    def test_stalled_collective_times_out_and_recovers(self, tmp_path):
        result = run_simulation(
            small_config(n_steps=2),
            world_size=4,
            timeout=1.0,
            checkpoint_dir=tmp_path,
            fault_plan=FaultPlan.parse(
                "stall:rank=2,collective=allgather,duration=4.0"
            ),
        )
        assert result.recovered
        assert result.ok
        assert "RankFailure" in result.attempts[0].failure

    def test_checkpoint_write_fault_does_not_kill_run(self, tmp_path):
        """Losing a checkpoint write is absorbed; the run continues."""
        result = run_simulation(
            small_config(n_steps=2),
            world_size=2,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            fault_plan=FaultPlan.parse("ckptfail:step=1"),
        )
        assert not result.recovered  # no restart was ever needed
        assert result.ok
        assert result.checkpoint_write_failures == 1
        # the final-step checkpoint still landed
        assert any(p.name == "sim-step0002.npz" for p in tmp_path.iterdir())

    def test_retry_budget_exhaustion_raises_aborted(self, tmp_path):
        with pytest.raises(SimulationAborted) as exc:
            run_simulation(
                small_config(n_steps=2),
                world_size=2,
                timeout=10.0,
                checkpoint_dir=tmp_path,
                fault_plan=FaultPlan.parse("kill:rank=1,step=0"),
                retry_policy=RetryPolicy(max_retries=0),
            )
        assert len(exc.value.attempts) == 1
        assert exc.value.attempts[0].outcome == "failed"


@pytest.mark.timeout(120)
class TestFaultFreePath:
    def test_clean_multirank_run_single_attempt(self, tmp_path, fault_free_driver):
        result = run_simulation(
            small_config(),
            world_size=4,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        assert not result.recovered
        assert result.ok
        assert [rec.outcome for rec in result.attempts] == ["completed"]
        # replicated ranks reproduce the single-driver reference
        for ref, got in zip(
            fault_free_driver.diagnostics, result.driver.diagnostics
        ):
            assert got.kinetic_energy == ref.kinetic_energy

    def test_restart_from_checkpoint_file(self, tmp_path):
        """--restart-from: a checkpoint written by one run seeds the next."""
        first = run_simulation(
            small_config(),
            world_size=2,
            timeout=10.0,
            checkpoint_dir=tmp_path / "a",
            checkpoint_every=1,
        )
        ckpt_path = sorted((tmp_path / "a").glob("sim-step0002.npz"))[0]
        resumed = run_simulation(
            small_config(),
            world_size=2,
            timeout=10.0,
            restart_from=ckpt_path,
        )
        assert resumed.ok
        assert resumed.attempts[0].restarted_from_step == 2
        assert (
            resumed.driver.diagnostics[-1].kinetic_energy
            == first.driver.diagnostics[-1].kinetic_energy
        )


@pytest.mark.timeout(180)
class TestGracefulDegradation:
    """Shrink-and-continue acceptance: a kill finishes the run on a
    smaller world with exact physics, without restarting from disk."""

    def test_kill_completes_via_shrink_with_exact_physics(
        self, tmp_path, fault_free_driver
    ):
        """Acceptance: rank 3 dies at step 1 of an 8-rank run under the
        shrink ladder; the run completes in ONE attempt on 7 ranks and
        conserved quantities match the fault-free reference."""
        result = run_simulation(
            small_config(),
            world_size=8,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse("kill:rank=3,step=1", seed=7),
            degrade_policy="shrink",
        )
        assert result.ok, result.report.summary()
        assert result.degraded
        assert not result.recovered  # no restart happened
        assert len(result.attempts) == 1
        assert result.attempts[0].outcome == "degraded"
        assert result.final_world_size == 7
        (event,) = result.degradations
        assert event.action == "shrink"
        assert event.dead_ranks == (3,)
        assert sorted(event.survivors) == [r for r in range(8) if r != 3]
        for ref, got in zip(
            fault_free_driver.diagnostics, result.driver.diagnostics
        ):
            assert got.kinetic_energy == ref.kinetic_energy
            assert got.thermal_energy == ref.thermal_energy
            np.testing.assert_array_equal(got.total_momentum, ref.total_momentum)

    def test_two_kills_shrink_twice_without_disk(self, fault_free_driver):
        """Two separate node failures, no checkpoint directory at all:
        the buddy tier alone carries the run from 8 ranks down to 6."""
        result = run_simulation(
            small_config(),
            world_size=8,
            timeout=10.0,
            fault_plan=FaultPlan.parse("kill:rank=3,step=1;kill:rank=5,step=2", seed=7),
            degrade_policy="shrink",
            retry_policy=RetryPolicy(max_retries=1),
        )
        assert result.ok
        assert result.final_world_size == 6
        assert len(result.attempts) == 1
        assert [e.dead_ranks for e in result.degradations] == [(3,), (5,)]
        for ref, got in zip(
            fault_free_driver.diagnostics, result.driver.diagnostics
        ):
            assert got.kinetic_energy == ref.kinetic_energy

    def test_restart_policy_preserves_pre_degradation_behaviour(self, tmp_path):
        """The default ladder ("restart") must reproduce the historic
        two-attempt restart-from-checkpoint recovery exactly."""
        kwargs = dict(
            world_size=8,
            timeout=10.0,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse("kill:rank=3,step=1", seed=7),
        )
        implicit = run_simulation(
            small_config(), checkpoint_dir=tmp_path / "implicit", **kwargs
        )
        explicit = run_simulation(
            small_config(),
            checkpoint_dir=tmp_path / "explicit",
            degrade_policy="restart",
            **kwargs,
        )
        for result in (implicit, explicit):
            assert result.recovered and result.ok
            assert not result.degraded
            assert result.final_world_size == 8
            assert [rec.outcome for rec in result.attempts] == [
                "failed",
                "completed",
            ]
            assert result.attempts[1].restarted_from_step == 1

    def test_abort_policy_fails_fast_without_retrying(self, tmp_path):
        with pytest.raises(SimulationAborted) as exc:
            run_simulation(
                small_config(n_steps=2),
                world_size=2,
                timeout=10.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                fault_plan=FaultPlan.parse("kill:rank=1,step=1"),
                degrade_policy="abort",
                retry_policy=RetryPolicy(max_retries=3),  # ladder overrides budget
            )
        assert len(exc.value.attempts) == 1

    def test_min_ranks_floor_falls_back_to_restart(self, tmp_path):
        """A shrink that would go below min_ranks is refused; the
        ladder's next rung (restart) recovers the run instead."""
        from repro.resilience import DegradationPolicy

        result = run_simulation(
            small_config(n_steps=2),
            world_size=2,
            timeout=10.0,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            fault_plan=FaultPlan.parse("kill:rank=1,step=1"),
            degrade_policy=DegradationPolicy.named("shrink", min_ranks=2),
        )
        assert result.ok
        assert result.recovered  # restarted, did not shrink to 1
        assert result.final_world_size == 2
        assert not result.degradations
