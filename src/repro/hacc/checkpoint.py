"""Standalone-kernel checkpoints (Section 7.2).

"To facilitate rapid prototyping and analysis, we extracted CRK-HACC's
biggest hotspots into standalone applications driven by checkpoint
files."  This module provides exactly that workflow: a kernel's full
input state is captured to an ``.npz`` file, and a standalone runner
replays any of the five hot kernels from it -- the mechanism the
paper's authors used to establish per-kernel performance upper bounds
and to develop the Section 5 variants.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.hacc.particles import ParticleData, Species
from repro.hacc.sph.pairs import PairContext
from repro.hacc.timestep import TIMER_NAMES, hydro_force, hydro_state

#: version 2 added the payload checksum; version 1 (none) is rejected
FORMAT_VERSION = 2
#: entries of a checkpoint file that are not payload
_ENVELOPE = ("kind", "version", "checksum")


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated, corrupt, or of an
    unsupported format version."""


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


def atomic_save(
    path: str | Path,
    payload: dict[str, np.ndarray],
    *,
    version: int,
    kind: str | None = None,
    before_write: Callable[[Path], None] | None = None,
) -> Path:
    """Write ``payload`` under the versioned, checksummed envelope;
    returns the final path (``.npz`` appended when missing).

    Atomic: a temp file in the target directory is flushed, ``fsync``-ed
    and only then ``os.replace``-d over the final name, so a crash
    mid-write never leaves a torn file under it.  ``before_write(tmp)``
    runs first — the fault injector's torn-write point.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    header = {"version": version, "checksum": payload_digest(payload)}
    if kind is not None:
        header = {"kind": kind, **header}
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        if before_write is not None:
            before_write(tmp)
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **header, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def verified_load(
    path: str | Path,
    decode: Callable[[dict[str, np.ndarray]], Any],
    *,
    what: str,
    version: int,
    kind: str | None = None,
    required: tuple[str, ...] = (),
) -> Any:
    """``decode`` the verified payload of one :func:`atomic_save` file.

    Raises :class:`CheckpointError` on any unreadable, truncated,
    foreign, wrong-version, incomplete, corrupt or undecodable file.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            if kind is not None and (
                "kind" not in data or str(data["kind"]) != kind
            ):
                raise CheckpointError(f"{path}: not a {what} checkpoint")
            if "version" not in data:
                raise CheckpointError(
                    f"{path}: not a {what} checkpoint (no version field)"
                )
            found = int(data["version"])
            if found != version:
                raise CheckpointError(
                    f"{path}: {what} checkpoint format {found} not supported "
                    f"(expected {version})"
                )
            missing = [name for name in required if name not in data]
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
        return decode(payload)
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/pickle/OS/key errors -> one clear type
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc


@dataclass(frozen=True)
class KernelCheckpoint:
    """Input state of the hydro pipeline at one point in a run."""

    box: float
    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    h: np.ndarray
    u: np.ndarray
    volume: np.ndarray
    rho: np.ndarray
    pressure: np.ndarray
    cs: np.ndarray

    @classmethod
    def capture(cls, particles: ParticleData) -> "KernelCheckpoint":
        """Capture the gas state from a particle set."""
        mask = particles.species_mask(Species.BARYON)
        idx = np.nonzero(mask)[0]
        return cls(
            box=particles.box,
            pos=particles.positions[idx],
            vel=particles.velocities[idx],
            mass=particles.mass[idx].copy(),
            h=particles.hsml[idx].copy(),
            u=particles.u[idx].copy(),
            volume=particles.volume[idx].copy(),
            rho=particles.rho[idx].copy(),
            pressure=particles.pressure[idx].copy(),
            cs=particles.cs[idx].copy(),
        )

    def particles(self) -> ParticleData:
        """The inverse of :meth:`capture`: a gas-only particle set."""
        gas = ParticleData.allocate(self.n_particles, self.box)
        gas.set_positions(self.pos)
        gas.set_velocities(self.vel)
        gas.arrays["species"][:] = Species.BARYON
        gas.arrays["hsml"][:] = self.h
        for name in ("mass", "u", "volume", "rho", "pressure", "cs"):
            gas.arrays[name][:] = getattr(self, name)
        return gas

    _PAYLOAD_FIELDS = (
        "pos", "vel", "mass", "h", "u", "volume", "rho", "pressure", "cs",
    )

    def _payload(self) -> dict[str, np.ndarray]:
        payload = {name: getattr(self, name) for name in self._PAYLOAD_FIELDS}
        payload["box"] = np.float64(self.box)
        return payload

    def save(self, path: str | Path) -> Path:
        """Atomic checksummed write; returns the final path."""
        return atomic_save(path, self._payload(), version=FORMAT_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "KernelCheckpoint":
        """Load a checkpoint, raising :class:`CheckpointError` on any
        truncated, corrupt, incomplete, or unsupported file."""
        return verified_load(
            path,
            lambda payload: cls(
                box=float(payload["box"]),
                **{name: payload[name] for name in cls._PAYLOAD_FIELDS},
            ),
            what="kernel",
            version=FORMAT_VERSION,
            required=cls._PAYLOAD_FIELDS + ("box",),
        )

    @property
    def n_particles(self) -> int:
        return len(self.mass)


#: kernels runnable standalone, keyed by the paper's names, in pipeline order
STANDALONE_KERNELS = ("geometry", "corrections", "extras", "acceleration", "energy")
#: the timer each one runs under in the driver's first hydro pass
_TIMER_OF = dict(zip(STANDALONE_KERNELS, TIMER_NAMES))


def run_standalone(checkpoint: KernelCheckpoint, kernel: str) -> dict[str, np.ndarray]:
    """Run one hot kernel from a checkpoint; returns its named outputs.

    The replay runs the driver's own hydro stages (upstream kernels
    included, as the real standalone drivers replay the pipeline
    prefix) on a context built from the checkpoint, so the outputs of a
    checkpoint taken at a step boundary are bit for bit what the next
    step's first pass hands its ``kernel_hook``.
    """
    if kernel not in STANDALONE_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {STANDALONE_KERNELS}"
        )
    timer = _TIMER_OF[kernel]
    seen: dict[str, dict[str, np.ndarray]] = {}

    def collect(timer, evaluate, *outputs):
        result = evaluate()
        seen[timer] = {name: getattr(result, name) for name in outputs}
        return result

    gas = checkpoint.particles()
    idx = np.arange(len(gas))
    ctx = PairContext.build(checkpoint.pos, checkpoint.h, checkpoint.box)
    corr, grad_w = hydro_state(ctx, gas, idx, collect)
    if timer not in seen:
        hydro_force(ctx, gas, idx, corr, collect, grad_w)
    return seen[timer]


def checkpoint_metadata(checkpoint: KernelCheckpoint) -> str:
    """JSON summary of a checkpoint (for experiment logs)."""
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "n_particles": checkpoint.n_particles,
            "box": checkpoint.box,
            "mean_h": float(checkpoint.h.mean()) if checkpoint.n_particles else 0.0,
        },
        indent=2,
    )
