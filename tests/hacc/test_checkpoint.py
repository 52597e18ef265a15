"""Tests for the run checkpoint as a standalone-kernel input (Section 7.2)."""

import json

import numpy as np
import pytest

from repro.experiments.standalone import (
    STANDALONE_KERNELS,
    checkpoint_metadata,
    run_standalone,
)
from repro.hacc.particles import Species
from repro.hacc.timestep import TIMER_NAMES, AdiabaticDriver, SimulationConfig
from repro.resilience import CheckpointError, SimulationCheckpoint
from repro.resilience.restart import SIM_FORMAT_VERSION


@pytest.fixture(scope="module")
def checkpoint(reference_driver):
    return SimulationCheckpoint.capture(reference_driver)


def rewrite(path, **changes):
    """Re-save ``path`` with entries replaced (``None`` deletes one)
    and the stored checksum left as it was."""
    with np.load(path) as data:
        entries = {name: data[name] for name in data.files}
    for name, value in changes.items():
        if value is None:
            del entries[name]
        else:
            entries[name] = value
    np.savez(path, **entries)


class TestCapture:
    def test_fields_finite(self, checkpoint):
        for name, arr in checkpoint.particle_arrays.items():
            assert np.all(np.isfinite(arr)), name


class TestRoundTrip:
    def test_save_load_identical(self, checkpoint, tmp_path):
        path = checkpoint.save(tmp_path / "state.npz")
        loaded = SimulationCheckpoint.load(path)
        assert loaded.box == checkpoint.box
        assert loaded.particle_arrays.keys() == checkpoint.particle_arrays.keys()
        for name, arr in checkpoint.particle_arrays.items():
            assert np.array_equal(loaded.particle_arrays[name], arr), name
            assert loaded.particle_arrays[name].dtype == arr.dtype, name

    def test_version_mismatch_rejected(self, checkpoint, tmp_path):
        path = checkpoint.save(tmp_path / "state.npz")
        rewrite(path, version=np.array(999))
        with pytest.raises(ValueError):
            SimulationCheckpoint.load(path)


class TestCorruptFiles:
    """load() converts every failure mode to CheckpointError."""

    @pytest.fixture
    def saved(self, checkpoint, tmp_path):
        return checkpoint.save(tmp_path / "state.npz")

    def test_truncated_file(self, saved):
        saved.write_bytes(saved.read_bytes()[:80])
        with pytest.raises(CheckpointError, match="unreadable"):
            SimulationCheckpoint.load(saved)

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            SimulationCheckpoint.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            SimulationCheckpoint.load(tmp_path / "nope.npz")

    def test_missing_payload_field(self, saved):
        # a particle array dropped under a *correct* checksum: without
        # the field check the file loads and the restored driver dies
        # with a bare AttributeError in its first step
        from repro.resilience.restart import payload_digest

        with np.load(saved) as data:
            entries = {name: data[name] for name in data.files}
        del entries["part_pressure"]
        payload = {
            name: arr
            for name, arr in entries.items()
            if name not in ("kind", "version", "checksum")
        }
        entries["checksum"] = np.array(payload_digest(payload))
        np.savez(saved, **entries)
        with pytest.raises(CheckpointError, match="missing field.*part_pressure"):
            SimulationCheckpoint.load(saved)

    def test_no_version_field(self, saved):
        rewrite(saved, version=None)
        with pytest.raises(CheckpointError, match="missing field.*version"):
            SimulationCheckpoint.load(saved)

    def test_bitflip_detected_by_checksum(self, saved):
        with np.load(saved) as data:
            u = data["part_u"].copy()
        u[0] += 1e-12  # stale checksum now mismatches
        rewrite(saved, part_u=u)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            SimulationCheckpoint.load(saved)

    def test_checkpoint_error_is_a_value_error(self):
        # callers that predate the dedicated type keep working
        assert issubclass(CheckpointError, ValueError)


class TestVersion1Rejected:
    def test_version1_file_is_rejected(self, checkpoint, tmp_path):
        """A file that claims the current version but carries no
        checksum must not skip verification."""
        path = checkpoint.save(tmp_path / "v1.npz")
        rewrite(path, checksum=None, version=np.array(SIM_FORMAT_VERSION))
        with pytest.raises(CheckpointError, match="missing field.*checksum"):
            SimulationCheckpoint.load(path)


class TestAtomicWrite:
    def test_interrupted_save_leaves_the_earlier_file_loadable(
        self, checkpoint, tmp_path, monkeypatch
    ):
        path = checkpoint.save(tmp_path / "state.npz")

        def torn_write(fh, **arrays):
            fh.write(b"PK\x03\x04 torn")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(KeyboardInterrupt):
            checkpoint.save(path)
        monkeypatch.undo()
        loaded = SimulationCheckpoint.load(path)
        np.testing.assert_array_equal(
            loaded.particle_arrays["u"], checkpoint.particle_arrays["u"]
        )
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


class TestStandaloneRuns:
    @pytest.mark.parametrize("kernel", STANDALONE_KERNELS)
    def test_every_hot_kernel_runs_standalone(self, checkpoint, kernel):
        out = run_standalone(checkpoint, kernel)
        assert out
        for name, arr in out.items():
            assert np.all(np.isfinite(arr)), f"{kernel}/{name}"

    def test_unknown_kernel_rejected(self, checkpoint):
        with pytest.raises(ValueError):
            run_standalone(checkpoint, "subgrid_agn")

    @pytest.fixture(scope="class")
    def in_run(self, tmp_path_factory):
        """A checkpoint taken at a step boundary of an untruncated
        cell-path run, saved and loaded back, and what ``kernel_hook``
        hands out in the first hydro pass of the step after it."""
        driver = AdiabaticDriver(SimulationConfig(n_per_side=9, n_steps=2, seed=7))
        driver.advance()
        path = SimulationCheckpoint.capture(driver).save(
            tmp_path_factory.mktemp("in-run") / "sim-step0001.npz"
        )
        taken = SimulationCheckpoint.load(path)
        hooked = {}
        driver.kernel_hook = lambda name, _step, outputs: hooked.update(
            {name: {k: v.copy() for k, v in outputs.items()}}
        )
        driver.advance()
        return taken, hooked

    @pytest.mark.parametrize(
        "kernel, timer", zip(STANDALONE_KERNELS, TIMER_NAMES), ids=STANDALONE_KERNELS
    )
    def test_standalone_matches_pipeline(self, in_run, kernel, timer):
        # a replay computes what the application computes, bit for bit
        taken, hooked = in_run
        replayed = run_standalone(taken, kernel)
        assert replayed.keys() == hooked[timer].keys()
        for name, arr in replayed.items():
            assert np.array_equal(arr, hooked[timer][name]), f"{kernel}/{name}"

    def test_acceleration_conserves_momentum(self, checkpoint):
        dv = run_standalone(checkpoint, "acceleration")["dv_dt"]
        p = checkpoint.particles()
        mass = p.mass[p.species_mask(Species.BARYON)]
        net = (mass[:, None] * dv).sum(axis=0)
        scale = np.abs(mass[:, None] * dv).sum()
        assert np.all(np.abs(net) <= 1e-12 * max(scale, 1e-300))


class TestMetadata:
    def test_json_summary(self, checkpoint, reference_driver):
        meta = json.loads(checkpoint_metadata(checkpoint))
        assert meta["n_particles"] == len(reference_driver.particles)
        assert meta["n_gas"] == reference_driver.particles.count(Species.BARYON)
        assert meta["step_index"] == checkpoint.step_index
        assert meta["format_version"] == SIM_FORMAT_VERSION
