"""Tests for standalone-kernel checkpoints (Section 7.2)."""

import json

import numpy as np
import pytest

from repro.hacc.checkpoint import (
    FORMAT_VERSION,
    STANDALONE_KERNELS,
    CheckpointError,
    KernelCheckpoint,
    checkpoint_metadata,
    run_standalone,
)
from repro.hacc.particles import Species
from repro.hacc.timestep import TIMER_NAMES, AdiabaticDriver, SimulationConfig


@pytest.fixture(scope="module")
def checkpoint(reference_driver):
    return KernelCheckpoint.capture(reference_driver.particles)


class TestCapture:
    def test_captures_gas_only(self, checkpoint, reference_driver):
        n_gas = reference_driver.particles.count(Species.BARYON)
        assert checkpoint.n_particles == n_gas

    def test_fields_finite(self, checkpoint):
        for name in ("pos", "vel", "mass", "h", "u", "pressure", "cs"):
            assert np.all(np.isfinite(getattr(checkpoint, name))), name


class TestRoundTrip:
    def test_save_load_identical(self, checkpoint, tmp_path):
        path = tmp_path / "state.npz"
        checkpoint.save(path)
        loaded = KernelCheckpoint.load(path)
        assert loaded.box == checkpoint.box
        for name in ("pos", "vel", "mass", "h", "u", "volume", "rho", "pressure", "cs"):
            assert np.array_equal(getattr(loaded, name), getattr(checkpoint, name)), name

    def test_version_mismatch_rejected(self, checkpoint, tmp_path):
        path = tmp_path / "state.npz"
        checkpoint.save(path)
        data = dict(np.load(path))
        data["version"] = np.array(999)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            KernelCheckpoint.load(path)


class TestCorruptFiles:
    """load() converts every failure mode to CheckpointError."""

    @pytest.fixture
    def saved(self, checkpoint, tmp_path):
        path = tmp_path / "state.npz"
        checkpoint.save(path)
        return path

    def test_truncated_file(self, saved):
        saved.write_bytes(saved.read_bytes()[:80])
        with pytest.raises(CheckpointError, match="unreadable"):
            KernelCheckpoint.load(saved)

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            KernelCheckpoint.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            KernelCheckpoint.load(tmp_path / "nope.npz")

    def test_missing_payload_field(self, saved):
        data = dict(np.load(saved))
        del data["pressure"]
        np.savez(saved, **data)
        with pytest.raises(CheckpointError, match="missing field.*pressure"):
            KernelCheckpoint.load(saved)

    def test_no_version_field(self, saved):
        data = dict(np.load(saved))
        del data["version"]
        np.savez(saved, **data)
        with pytest.raises(CheckpointError, match="no version field"):
            KernelCheckpoint.load(saved)

    def test_bitflip_detected_by_checksum(self, saved):
        data = dict(np.load(saved))
        data["u"] = data["u"].copy()
        data["u"][0] += 1e-12  # stale checksum now mismatches
        np.savez(saved, **data)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            KernelCheckpoint.load(saved)

    def test_checkpoint_error_is_a_value_error(self):
        # callers that predate the dedicated type keep working
        assert issubclass(CheckpointError, ValueError)


class TestVersion1Rejected:
    def test_version1_file_is_rejected(self, checkpoint, tmp_path):
        """Version 1 carried no checksum and nothing can write it any
        more: a file that claims it must not skip verification."""
        path = tmp_path / "v1.npz"
        checkpoint.save(path)
        data = dict(np.load(path))
        del data["checksum"]
        data["version"] = np.array(1)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="format 1 not supported"):
            KernelCheckpoint.load(path)


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
        loaded = KernelCheckpoint.load(path)
        np.testing.assert_array_equal(loaded.u, checkpoint.u)
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
    def in_run(self):
        """A checkpoint taken at a step boundary of an untruncated
        cell-path run, and what ``kernel_hook`` hands out in the first
        hydro pass of the step after it."""
        driver = AdiabaticDriver(SimulationConfig(n_per_side=9, n_steps=2, seed=7))
        driver.advance()
        taken = KernelCheckpoint.capture(driver.particles)
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
        net = (checkpoint.mass[:, None] * dv).sum(axis=0)
        scale = np.abs(checkpoint.mass[:, None] * dv).sum()
        assert np.all(np.abs(net) <= 1e-12 * max(scale, 1e-300))


class TestMetadata:
    def test_json_summary(self, checkpoint):
        meta = json.loads(checkpoint_metadata(checkpoint))
        assert meta["n_particles"] == checkpoint.n_particles
        assert meta["format_version"] == FORMAT_VERSION
