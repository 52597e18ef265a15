"""Checkpoint/restart: the one checkpoint format of the tree.

A :class:`SimulationCheckpoint` captures everything a run needs to
resume: both species' complete particle state, the step position in
the schedule, the cosmology scale factor, the RNG stream, and the
recorded trace/diagnostics (so a resumed run still satisfies the
validator's timer-pattern audit).  The same file drives the standalone
kernel replays of Section 7.2
(:func:`repro.experiments.standalone.run_standalone`).

Files are what production checkpointing discipline demands:
**atomic** (temp file + ``fsync`` + ``os.replace``, so a crash or an
injected :class:`~repro.resilience.faults.CheckpointWriteFault` mid-write
never leaves a half-written file under the checkpoint name),
**versioned**, **complete** (every envelope, metadata and particle
entry present) and **checksummed** (SHA-256 over every payload array,
verified on load, so silent corruption is detected instead of
propagated into physics).  Every failure to load is one
:class:`CheckpointError`.

:class:`CheckpointManager` adds the periodic-write policy on top:
checkpoint every *k* steps, keep a bounded history, find the newest
*valid* checkpoint on restart (skipping any corrupt file).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.hacc.confighash import config_hash
from repro.hacc.particles import FIELDS, ParticleData
from repro.hacc.timestep import (
    AdiabaticDriver,
    KernelInvocation,
    SimulationConfig,
    StepDiagnostics,
    WorkloadTrace,
)
from repro.resilience.faults import CheckpointWriteFault

SIM_FORMAT_VERSION = 1
_KIND = "crk-hacc-simulation"
#: entries of a checkpoint file that are not payload
_ENVELOPE = ("kind", "version", "checksum")
#: entries a loadable file must hold (``config_hash`` is optional:
#: files written before it was recorded lack it)
_REQUIRED = (
    "version", "checksum", "step_index", "a", "box", "config_json", "rng_json",
    "trace_names", "trace_workitems", "trace_interactions",
    "diag_a", "diag_ke", "diag_te", "diag_momentum", "diag_contrast",
    *(f"part_{name}" for name in FIELDS),
)

#: checkpoint files :class:`CheckpointManager` keeps (the newest ones)
KEEP_CHECKPOINTS = 4
#: re-issues of a checkpoint write after a transient OS-level error
WRITE_RETRIES = 2


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated, corrupt, incomplete,
    or of an unsupported format version."""


def payload_digest(arrays: dict[str, np.ndarray]) -> str:
    """Order-independent SHA-256 digest of named array payloads.

    Hashes each entry's name, dtype, shape, and raw bytes, so any
    bitflip in the stored data (or a silently dropped field) changes
    the digest.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name]))
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SimulationCheckpoint:
    """A restartable snapshot of an in-flight simulation."""

    step_index: int
    a: float
    config: SimulationConfig
    box: float
    particle_arrays: dict[str, np.ndarray]
    rng_state: dict[str, Any]
    trace: tuple[KernelInvocation, ...]
    diagnostics: tuple[StepDiagnostics, ...]

    # -- capture -------------------------------------------------------
    @classmethod
    def capture(cls, driver: AdiabaticDriver) -> "SimulationCheckpoint":
        """Snapshot a driver between steps."""
        return cls(
            step_index=driver.step_index,
            a=driver.a,
            config=driver.config,
            box=driver.particles.box,
            particle_arrays={
                name: arr.copy() for name, arr in driver.particles.arrays.items()
            },
            rng_state=driver.rng.bit_generator.state,
            trace=tuple(driver.trace.invocations),
            diagnostics=tuple(driver.diagnostics),
        )

    # -- restore -------------------------------------------------------
    def particles(self) -> ParticleData:
        """A fresh (independently mutable) particle container."""
        return ParticleData(
            box=self.box,
            arrays={name: arr.copy() for name, arr in self.particle_arrays.items()},
        )

    def restore_driver(self) -> AdiabaticDriver:
        """Build a driver resuming at :attr:`step_index`.

        Each call returns an independent driver (own particle arrays,
        trace, and RNG), so every rank of a simulated world can restore
        from one shared checkpoint object without aliasing state.
        """
        driver = AdiabaticDriver(config=self.config, particles=self.particles())
        driver.restore(
            particles=driver.particles,
            step_index=self.step_index,
            trace=WorkloadTrace(invocations=list(self.trace)),
            diagnostics=[dataclasses.replace(d) for d in self.diagnostics],
            rng_state=json.loads(json.dumps(self.rng_state)),
        )
        return driver

    # -- serialization -------------------------------------------------
    def _payload(self) -> dict[str, np.ndarray]:
        payload: dict[str, np.ndarray] = {
            "step_index": np.int64(self.step_index),
            "a": np.float64(self.a),
            "box": np.float64(self.box),
            "config_json": np.frombuffer(
                json.dumps(dataclasses.asdict(self.config)).encode(), dtype=np.uint8
            ),
            # canonical content hash of the config (shared with the
            # service cache); load verifies it against the decoded
            # config so a resume never silently crosses configurations
            "config_hash": np.array(config_hash(self.config), dtype=np.str_),
            "rng_json": np.frombuffer(
                json.dumps(self.rng_state).encode(), dtype=np.uint8
            ),
            "trace_names": np.array([i.name for i in self.trace], dtype=np.str_),
            "trace_workitems": np.array(
                [i.n_workitems for i in self.trace], dtype=np.int64
            ),
            "trace_interactions": np.array(
                [i.interactions_per_item for i in self.trace], dtype=np.float64
            ),
            "diag_a": np.array([d.a for d in self.diagnostics], dtype=np.float64),
            "diag_ke": np.array(
                [d.kinetic_energy for d in self.diagnostics], dtype=np.float64
            ),
            "diag_te": np.array(
                [d.thermal_energy for d in self.diagnostics], dtype=np.float64
            ),
            "diag_momentum": np.array(
                [d.total_momentum for d in self.diagnostics], dtype=np.float64
            ).reshape(len(self.diagnostics), 3),
            "diag_contrast": np.array(
                [d.max_density_contrast for d in self.diagnostics], dtype=np.float64
            ),
        }
        for name, arr in self.particle_arrays.items():
            payload[f"part_{name}"] = arr
        return payload

    def save(self, path: str | Path, *, injector=None) -> Path:
        """Atomic checksummed write; returns the final path (``.npz``
        appended when missing).

        A temp file in the target directory is flushed, ``fsync``-ed
        and only then ``os.replace``-d over the final name.
        ``injector`` is the optional fault injector whose
        ``fail_checkpoint_write`` hook models a crash mid-write (the
        temp file is torn, the final name is never touched).
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        payload = self._payload()
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            if injector is not None:
                injector.fail_checkpoint_write(self.step_index, tmp)
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    kind=_KIND,
                    version=SIM_FORMAT_VERSION,
                    checksum=payload_digest(payload),
                    **payload,
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SimulationCheckpoint":
        """Load and verify; raises :class:`CheckpointError` on any
        unreadable, foreign, wrong-version, incomplete, corrupt or
        undecodable file."""
        path = Path(path)
        try:
            with np.load(path) as data:
                if "kind" not in data or str(data["kind"]) != _KIND:
                    raise CheckpointError(f"{path}: not a simulation checkpoint")
                if "version" in data and int(data["version"]) != SIM_FORMAT_VERSION:
                    raise CheckpointError(
                        f"{path}: simulation checkpoint format "
                        f"{int(data['version'])} not supported "
                        f"(expected {SIM_FORMAT_VERSION})"
                    )
                missing = [name for name in _REQUIRED if name not in data]
                if missing:
                    raise CheckpointError(
                        f"{path}: checkpoint missing field(s) {missing}"
                    )
                payload = {
                    name: data[name] for name in data.files if name not in _ENVELOPE
                }
                stored = str(data["checksum"])
            actual = payload_digest(payload)
            if stored != actual:
                raise CheckpointError(
                    f"{path}: checksum mismatch "
                    f"(stored {stored[:12]}..., data {actual[:12]}...)"
                )
            return cls._from_payload(payload)
        except CheckpointError:
            raise
        except Exception as exc:  # zipfile/pickle/OS/key errors -> one clear type
            raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc

    @classmethod
    def _from_payload(cls, payload: dict[str, np.ndarray]) -> "SimulationCheckpoint":
        config = SimulationConfig(
            **json.loads(bytes(payload["config_json"]).decode())
        )
        stored_hash = payload.get("config_hash")
        if stored_hash is not None and str(stored_hash) != config_hash(config):
            # same format version: files written before the hash was
            # recorded load fine, but a recorded hash must agree with
            # the config it travels with
            raise CheckpointError(
                f"config hash mismatch: stored {str(stored_hash)[:12]}..., "
                f"decoded config hashes to {config_hash(config)[:12]}..."
            )
        rng_state = json.loads(bytes(payload["rng_json"]).decode())
        trace = tuple(
            KernelInvocation(str(name), int(n), float(per))
            for name, n, per in zip(
                payload["trace_names"],
                payload["trace_workitems"],
                payload["trace_interactions"],
            )
        )
        diagnostics = tuple(
            StepDiagnostics(
                a=float(payload["diag_a"][i]),
                kinetic_energy=float(payload["diag_ke"][i]),
                thermal_energy=float(payload["diag_te"][i]),
                total_momentum=payload["diag_momentum"][i].copy(),
                max_density_contrast=float(payload["diag_contrast"][i]),
            )
            for i in range(len(payload["diag_a"]))
        )
        particle_arrays = {
            name.removeprefix("part_"): payload[name]
            for name in payload
            if name.startswith("part_")
        }
        return cls(
            step_index=int(payload["step_index"]),
            a=float(payload["a"]),
            config=config,
            box=float(payload["box"]),
            particle_arrays=particle_arrays,
            rng_state=rng_state,
            trace=trace,
            diagnostics=diagnostics,
        )


class CheckpointManager:
    """Periodic checkpoint policy over a directory.

    Writes ``sim-step****.npz`` every ``every`` steps, keeps the
    newest :data:`KEEP_CHECKPOINTS` files, and on restart returns the
    newest file that *loads and verifies* (a torn, zero-byte, or
    corrupt file is skipped with a warning — and counted on
    ``sim.resilience.checkpoint_skipped`` — never trusted and never
    allowed to turn recovery into a load error).  ``tighten()``
    implements the retry backoff: after a recovery, checkpoint twice
    as often so repeated faults lose less work each round.

    ``io_backoff`` (a :class:`~repro.resilience.backoff.BackoffPolicy`)
    governs the :data:`WRITE_RETRIES` re-issues of a write after a
    *transient* OS-level error in :meth:`save_now`; injected
    :class:`CheckpointWriteFault`\\ s are deliberately not retried
    (they model a crash, not a transient).

    The manager keeps the books on its own writes (``written`` /
    ``write_failures``, the ``checkpoint.*`` counters, the
    ``checkpoint-write[-failed]`` instants); what a failed write
    *means* stays the caller's policy.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int = 1,
        injector=None,
        metrics=None,
        io_backoff=None,
        tracer=None,
    ):
        if every < 1:
            raise ValueError("checkpoint cadence must be >= 1 step")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.injector = injector
        self.metrics = metrics
        self.tracer = tracer
        self.io_backoff = io_backoff
        self.written: list[Path] = []
        #: injected write faults seen by :meth:`save_now`
        self.write_failures = 0

    def path_for(self, step_index: int) -> Path:
        return self.directory / f"sim-step{step_index:04d}.npz"

    def maybe_save(self, driver: AdiabaticDriver) -> Path | None:
        """Checkpoint if the cadence says so (call after each step)."""
        if driver.step_index % self.every != 0 and (
            driver.step_index != driver.config.n_steps
        ):
            return None
        return self.save_now(driver)

    def save_now(self, driver: AdiabaticDriver) -> Path:
        snapshot = SimulationCheckpoint.capture(driver)
        target = self.path_for(driver.step_index)
        for io_attempt in range(WRITE_RETRIES + 1):
            try:
                path = snapshot.save(target, injector=self.injector)
                break
            except CheckpointWriteFault as exc:
                # models a crash, not a transient: counted, never retried
                self.write_failures += 1
                if self.metrics is not None:
                    self.metrics.counter("checkpoint.write_failures").inc()
                if self.tracer is not None:
                    self.tracer.instant(
                        "checkpoint-write-failed",
                        category="checkpoint",
                        step=driver.step_index,
                        detail=str(exc),
                    )
                raise
            except OSError:
                # transient I/O (full pipe, flaky mount): back off and
                # re-issue
                if io_attempt == WRITE_RETRIES:
                    raise
                backoff = self.io_backoff
                if backoff is None:
                    from repro.resilience.backoff import BackoffPolicy

                    backoff = self.io_backoff = BackoffPolicy()
                backoff.sleep(io_attempt, metrics=self.metrics)
        n_bytes = path.stat().st_size
        if self.metrics is not None:
            self.metrics.counter("checkpoint.writes").inc()
            self.metrics.counter("checkpoint.bytes").inc(n_bytes)
        if self.tracer is not None:
            self.tracer.instant(
                "checkpoint-write",
                category="checkpoint",
                step=driver.step_index,
                bytes=n_bytes,
                path=str(path),
            )
        if path not in self.written:
            self.written.append(path)
        self._prune()
        return path

    def _prune(self) -> None:
        files = sorted(self.directory.glob("sim-step*.npz"))
        for stale in files[:-KEEP_CHECKPOINTS]:
            stale.unlink(missing_ok=True)

    def latest(self, config: Any | None = None) -> SimulationCheckpoint | None:
        """The newest checkpoint that passes verification, if any.

        Zero-byte, torn, corrupt, or wrong-version files are *skipped*
        (with a warning and a ``sim.resilience.checkpoint_skipped``
        count) rather than surfaced as load errors: mid-recovery is
        the worst possible moment to crash on a bad file when an older
        good one exists.  When ``config`` is given, checkpoints
        written under a different configuration are also skipped: a
        reused directory may hold stale checkpoints from an earlier
        run whose schedule is incompatible with the one being
        recovered.
        """
        for path in sorted(self.directory.glob("sim-step*.npz"), reverse=True):
            try:
                found = SimulationCheckpoint.load(path)
            except CheckpointError as exc:
                warnings.warn(
                    f"skipping invalid checkpoint {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if self.metrics is not None:
                    self.metrics.counter("sim.resilience.checkpoint_skipped").inc()
                continue
            if config is not None and found.config != config:
                continue
            return found
        return None

    def tighten(self) -> None:
        """Retry backoff: halve the cadence (checkpoint more often)."""
        self.every = max(1, self.every // 2)

