"""Tests for full-run checkpoint/restart (atomic, versioned, checksummed)."""

import numpy as np
import pytest

from repro.hacc.checkpoint import CheckpointError
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience.faults import (
    CheckpointWriteFault,
    FaultInjector,
    FaultSpec,
    plan_from_specs,
)
from repro.resilience.restart import (
    SIM_FORMAT_VERSION,
    CheckpointManager,
    SimulationCheckpoint,
)


def small_config(n_steps: int = 3) -> SimulationConfig:
    return SimulationConfig(n_per_side=6, n_steps=n_steps)


@pytest.fixture(scope="module")
def mid_run_driver():
    """A driver stopped after step 2 of 3."""
    driver = AdiabaticDriver(small_config())
    schedule = driver.schedule()
    driver.step(float(schedule[0]), float(schedule[1]))
    driver.step(float(schedule[1]), float(schedule[2]))
    return driver


@pytest.fixture
def checkpoint(mid_run_driver):
    return SimulationCheckpoint.capture(mid_run_driver)


class TestCaptureRestore:
    def test_captures_position_in_schedule(self, checkpoint, mid_run_driver):
        assert checkpoint.step_index == 2
        assert checkpoint.a == pytest.approx(float(mid_run_driver.schedule()[2]))

    def test_captures_both_species(self, checkpoint, mid_run_driver):
        assert len(checkpoint.particle_arrays["species"]) == len(
            mid_run_driver.particles
        )
        assert set(np.unique(checkpoint.particle_arrays["species"])) == {0, 1}

    def test_capture_copies_state(self, checkpoint, mid_run_driver):
        original = mid_run_driver.particles.arrays["x"][0]
        mid_run_driver.particles.arrays["x"][0] = original + 1.0
        assert checkpoint.particle_arrays["x"][0] != (
            mid_run_driver.particles.arrays["x"][0]
        )
        # restore bit-exactly: the driver is module-scoped
        mid_run_driver.particles.arrays["x"][0] = original

    def test_restored_drivers_are_independent(self, checkpoint):
        d1 = checkpoint.restore_driver()
        d2 = checkpoint.restore_driver()
        d1.particles.arrays["x"][0] += 1.0
        assert d2.particles.arrays["x"][0] != d1.particles.arrays["x"][0]

    def test_rng_state_round_trips(self, checkpoint, mid_run_driver):
        restored = checkpoint.restore_driver()
        assert (
            restored.rng.bit_generator.state == mid_run_driver.rng.bit_generator.state
        )

    def test_resumed_run_matches_uninterrupted_run(self, checkpoint):
        """The core restart guarantee: resume == never-stopped."""
        uninterrupted = AdiabaticDriver(small_config())
        uninterrupted.run()

        resumed = checkpoint.restore_driver()
        resumed.run()

        assert resumed.step_index == uninterrupted.step_index
        np.testing.assert_array_equal(
            resumed.particles.positions, uninterrupted.particles.positions
        )
        np.testing.assert_array_equal(
            resumed.particles.velocities, uninterrupted.particles.velocities
        )
        # trace and diagnostics also line up, so the validator's
        # timer-pattern audit passes on the resumed run
        assert len(resumed.trace.invocations) == len(uninterrupted.trace.invocations)
        assert [d.a for d in resumed.diagnostics] == [
            d.a for d in uninterrupted.diagnostics
        ]


class TestSaveLoad:
    def test_round_trip(self, checkpoint, tmp_path):
        path = checkpoint.save(tmp_path / "state.npz")
        loaded = SimulationCheckpoint.load(path)
        assert loaded.step_index == checkpoint.step_index
        assert loaded.a == checkpoint.a
        assert loaded.config == checkpoint.config
        assert loaded.rng_state == checkpoint.rng_state
        for name, arr in checkpoint.particle_arrays.items():
            np.testing.assert_array_equal(loaded.particle_arrays[name], arr)
        assert loaded.trace == checkpoint.trace

    def test_truncated_file_raises_checkpoint_error(self, checkpoint, tmp_path):
        path = checkpoint.save(tmp_path / "state.npz")
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="unreadable"):
            SimulationCheckpoint.load(path)

    def test_bitflip_detected_by_checksum(self, checkpoint, tmp_path):
        # corrupt a payload array and re-save with the stale checksum
        path = checkpoint.save(tmp_path / "state.npz")
        with np.load(path) as data:
            entries = {name: data[name].copy() for name in data.files}
        entries["part_x"] = entries["part_x"].copy()
        entries["part_x"][0] += 1e-9
        np.savez(path, **entries)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            SimulationCheckpoint.load(path)

    def test_wrong_version_rejected(self, checkpoint, tmp_path):
        path = checkpoint.save(tmp_path / "state.npz")
        with np.load(path) as data:
            entries = {name: data[name].copy() for name in data.files}
        entries["version"] = np.int64(SIM_FORMAT_VERSION + 1)
        np.savez(path, **entries)
        with pytest.raises(CheckpointError, match="not supported"):
            SimulationCheckpoint.load(path)

    def test_kernel_checkpoint_not_accepted(self, tmp_path, checkpoint):
        np.savez(tmp_path / "other.npz", version=1, box=1.0)
        with pytest.raises(CheckpointError, match="not a simulation checkpoint"):
            SimulationCheckpoint.load(tmp_path / "other.npz")

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            SimulationCheckpoint.load(tmp_path / "absent.npz")


@pytest.mark.faults
class TestAtomicWrite:
    def test_injected_write_fault_never_shadows_valid_file(
        self, checkpoint, tmp_path
    ):
        """Acceptance: a fault during write never leaves a file that
        load accepts (temp + rename + checksum)."""
        path = checkpoint.save(tmp_path / "state.npz")
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="fail_checkpoint")])
        )
        with pytest.raises(CheckpointWriteFault):
            checkpoint.save(path, injector=injector)
        # the old file is untouched and still verifies
        loaded = SimulationCheckpoint.load(path)
        assert loaded.step_index == checkpoint.step_index
        # no torn temp or half-written npz lingers as a loadable file
        for candidate in path.parent.iterdir():
            if candidate == path:
                continue
            with pytest.raises(CheckpointError):
                SimulationCheckpoint.load(candidate)

    def test_write_fault_on_fresh_path_leaves_nothing_loadable(
        self, checkpoint, tmp_path
    ):
        target = tmp_path / "fresh.npz"
        injector = FaultInjector(
            plan_from_specs([FaultSpec(kind="fail_checkpoint")])
        )
        with pytest.raises(CheckpointWriteFault):
            checkpoint.save(target, injector=injector)
        assert not target.exists()


class TestCheckpointManager:
    def test_cadence(self, tmp_path):
        driver = AdiabaticDriver(small_config(n_steps=4))
        manager = CheckpointManager(tmp_path, every=2)
        driver.run(on_step=lambda d, diag: manager.maybe_save(d))
        steps = sorted(int(p.stem.removeprefix("sim-step")) for p in
                       tmp_path.glob("sim-step*.npz"))
        assert steps == [2, 4]

    def test_final_step_always_checkpointed(self, tmp_path):
        driver = AdiabaticDriver(small_config(n_steps=3))
        manager = CheckpointManager(tmp_path, every=2)
        driver.run(on_step=lambda d, diag: manager.maybe_save(d))
        steps = {int(p.stem.removeprefix("sim-step")) for p in
                 tmp_path.glob("sim-step*.npz")}
        assert 3 in steps

    def test_latest_skips_corrupt_files(self, tmp_path, checkpoint):
        import dataclasses

        manager = CheckpointManager(tmp_path)
        good = dataclasses.replace(checkpoint, step_index=1)
        good_path = good.save(manager.path_for(1))
        corrupt = manager.path_for(2)
        corrupt.write_bytes(good_path.read_bytes()[:64])
        latest = manager.latest()
        assert latest is not None and latest.step_index == 1

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_latest_skips_stale_config(self, tmp_path, checkpoint):
        """A reused directory may hold checkpoints from an earlier run
        with a different schedule; recovery must not resume from
        those (regression: IndexError past the schedule end)."""
        manager = CheckpointManager(tmp_path)
        checkpoint.save(manager.path_for(2))
        other = small_config(n_steps=7)
        assert manager.latest(config=other) is None
        found = manager.latest(config=checkpoint.config)
        assert found is not None and found.step_index == checkpoint.step_index

    def test_prune_keeps_newest(self, tmp_path, checkpoint):
        manager = CheckpointManager(tmp_path, keep=2)
        import dataclasses

        for step in (1, 2, 3):
            dataclasses.replace(checkpoint, step_index=step).save(
                manager.path_for(step)
            )
        manager._prune()
        remaining = sorted(p.name for p in tmp_path.glob("sim-step*.npz"))
        assert remaining == ["sim-step0002.npz", "sim-step0003.npz"]

    def test_tighten_halves_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=4)
        manager.tighten()
        assert manager.every == 2
        manager.tighten()
        manager.tighten()
        assert manager.every == 1

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestLatestSkipsDamagedFiles:
    """Recovery discovery must step over zero-byte and torn files
    (warning + ``sim.resilience.checkpoint_skipped``), never crash."""

    def test_zero_byte_file_skipped_with_warning_and_counter(
        self, tmp_path, checkpoint
    ):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=metrics)
        checkpoint.save(manager.path_for(1))
        manager.path_for(2).write_bytes(b"")  # a crashed writer's leavings
        with pytest.warns(RuntimeWarning, match="skipping invalid checkpoint"):
            latest = manager.latest()
        assert latest is not None and latest.step_index == checkpoint.step_index
        assert metrics.counter("sim.resilience.checkpoint_skipped").value == 1

    def test_torn_tail_skipped(self, tmp_path, checkpoint):
        """Regression: a file truncated mid-write (torn tail) anywhere
        in the directory must not mask an older good checkpoint."""
        import dataclasses

        manager = CheckpointManager(tmp_path)
        good = dataclasses.replace(checkpoint, step_index=1)
        good.save(manager.path_for(1))
        whole = manager.path_for(2)
        dataclasses.replace(checkpoint, step_index=2).save(whole)
        torn = whole.read_bytes()
        whole.write_bytes(torn[: len(torn) - len(torn) // 3])
        with pytest.warns(RuntimeWarning, match="skipping invalid checkpoint"):
            latest = manager.latest()
        assert latest is not None and latest.step_index == 1

    def test_every_file_damaged_returns_none(self, tmp_path):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=metrics)
        manager.path_for(1).write_bytes(b"")
        manager.path_for(2).write_bytes(b"not a checkpoint")
        with pytest.warns(RuntimeWarning):
            assert manager.latest() is None
        assert metrics.counter("sim.resilience.checkpoint_skipped").value == 2


class TestDifferentialCheckpoint:
    def test_capture_stores_only_dirty_arrays(self, mid_run_driver):
        from repro.resilience.restart import DifferentialCheckpoint

        base = SimulationCheckpoint.capture(mid_run_driver)
        diff = DifferentialCheckpoint.capture(mid_run_driver, base)
        assert diff.n_dirty == 0  # nothing moved since the base

    def test_materialise_round_trips(self, mid_run_driver):
        from repro.resilience.restart import DifferentialCheckpoint

        base = SimulationCheckpoint.capture(mid_run_driver)
        driver = base.restore_driver()
        schedule = driver.schedule()
        driver.step(float(schedule[2]), float(schedule[3]))
        diff = DifferentialCheckpoint.capture(driver, base)
        assert diff.n_dirty > 0
        restored = diff.materialise().restore_driver()
        assert restored.step_index == driver.step_index
        for name, arr in driver.particles.arrays.items():
            np.testing.assert_array_equal(restored.particles.arrays[name], arr)

    def test_corruption_detected_before_materialise(self, mid_run_driver):
        from repro.resilience.restart import DifferentialCheckpoint

        base = SimulationCheckpoint.capture(mid_run_driver)
        driver = base.restore_driver()
        schedule = driver.schedule()
        driver.step(float(schedule[2]), float(schedule[3]))
        diff = DifferentialCheckpoint.capture(driver, base)
        name = next(iter(diff.dirty_arrays))
        diff.dirty_arrays[name][0] += 1e-3  # silent corruption in transit
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            diff.materialise()


class TestBuddyStore:
    @pytest.fixture
    def snapshot(self, mid_run_driver):
        from repro.resilience.restart import DifferentialCheckpoint

        base = SimulationCheckpoint.capture(mid_run_driver)
        return DifferentialCheckpoint.capture(mid_run_driver, base)

    def test_buddy_ring(self):
        from repro.resilience.restart import BuddyStore

        group = (0, 2, 3, 7)
        assert BuddyStore.buddy_of(0, group) == 2
        assert BuddyStore.buddy_of(7, group) == 0  # wraps the ring
        assert BuddyStore.buddy_of(3, group) == 7

    def test_deposit_and_adopt(self, snapshot):
        from repro.observability import MetricsRegistry
        from repro.resilience.restart import BuddyStore

        metrics = MetricsRegistry()
        store = BuddyStore(metrics=metrics)
        group = (0, 1, 2, 3)
        for rank in group:
            store.deposit(rank, snapshot, group)
        # rank 1 dies; its buddy (rank 2) holds a copy
        assert store.adoptable(1, survivors=(0, 2, 3))
        adopted = store.adopt(1, adopter=2)
        assert adopted.step_index == snapshot.step_index
        assert metrics.counter("sim.resilience.buddy_restores").value == 1

    def test_not_adoptable_when_holder_also_died(self, snapshot):
        from repro.resilience.restart import BuddyStore

        store = BuddyStore()
        group = (0, 1, 2)
        for rank in group:
            store.deposit(rank, snapshot, group)
        # ranks 1 and its buddy 2 both die: nobody holds rank 1's copy
        assert not store.adoptable(1, survivors=(0,))

    def test_own_returns_private_rollback_point(self, snapshot):
        from repro.resilience.restart import BuddyStore

        store = BuddyStore()
        store.deposit(0, snapshot, (0, 1))
        assert store.own(0) is snapshot
        assert store.own(1) is None


class TestConfigHashStamp:
    """The canonical config hash recorded in every checkpoint."""

    def _write_npz(self, path, payload):
        from repro.hacc.checkpoint import payload_digest
        from repro.resilience.restart import _KIND

        np.savez_compressed(
            path,
            kind=_KIND,
            version=SIM_FORMAT_VERSION,
            checksum=payload_digest(payload),
            **payload,
        )

    def test_saved_checkpoint_records_the_config_hash(self, checkpoint, tmp_path):
        from repro.core.confighash import config_hash

        path = checkpoint.save(tmp_path / "ck.npz")
        with np.load(path) as data:
            assert str(data["config_hash"]) == config_hash(checkpoint.config)
        # and it loads back fine
        assert SimulationCheckpoint.load(path).step_index == checkpoint.step_index

    def test_pre_hash_files_still_load(self, checkpoint, tmp_path):
        # files written before the hash was recorded carry the same
        # format version and simply lack the key; absence is tolerated
        payload = {
            k: v for k, v in checkpoint._payload().items() if k != "config_hash"
        }
        path = tmp_path / "legacy.npz"
        self._write_npz(path, payload)
        loaded = SimulationCheckpoint.load(path)
        assert loaded.step_index == checkpoint.step_index

    def test_mismatched_hash_is_rejected(self, checkpoint, tmp_path):
        payload = checkpoint._payload()
        payload["config_hash"] = np.array("0" * 64, dtype=np.str_)
        path = tmp_path / "crossed.npz"
        self._write_npz(path, payload)
        with pytest.raises(CheckpointError, match="config hash mismatch"):
            SimulationCheckpoint.load(path)

    @pytest.mark.parametrize("field", ["subcycling", "leaf_size"])
    def test_config_naming_a_removed_field_is_refused(
        self, checkpoint, tmp_path, field
    ):
        # a file from before SimulationConfig lost the field: a clear
        # CheckpointError, not the constructor's TypeError
        import dataclasses
        import json

        payload = checkpoint._payload()
        config = dataclasses.asdict(checkpoint.config) | {field: 1}
        payload["config_json"] = np.frombuffer(
            json.dumps(config).encode(), dtype=np.uint8
        )
        path = tmp_path / "old-config.npz"
        self._write_npz(path, payload)
        with pytest.raises(CheckpointError, match=field):
            SimulationCheckpoint.load(path)
