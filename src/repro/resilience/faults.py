"""Deterministic fault injection for the simulated multi-rank run.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` events;
the :class:`FaultInjector` arms them and fires each at most once, so a
failure scenario — "rank 3 dies at step 1, then the acceleration
kernel emits NaNs at step 2" — is a reproducible test case rather
than a flaky accident.  The injector is shared across ranks *and*
across restart attempts: a fault that already fired does not refire
after recovery, which is exactly the transient-failure model (a node
crash, a cosmic-ray bitflip) that checkpoint/restart is designed for.

Four fault kinds:

``kill_rank``
    the targeted rank raises :class:`RankKilled` at the start of the
    targeted step (the survivors then raise
    :class:`~repro.hacc.mpi_sim.RankFailure` at their next collective);
``corrupt_kernel``
    a hot kernel's freshly computed output array is corrupted in place
    (``nan`` / ``inf`` / ``bitflip``) on the targeted rank and step;
``stall_collective``
    the targeted rank sleeps through a collective long enough for the
    peers' rendezvous timeout to fire;
``fail_checkpoint``
    a :class:`~repro.resilience.restart.SimulationCheckpoint` write is
    torn mid-flight — the atomic write protocol must never let the
    torn data shadow a valid checkpoint;
``leak_energy``
    a *slow* fault: starting at the targeted step, every rank's gas
    internal energy is bled by ``rate`` per step for ``count`` steps —
    finite, individually plausible values the NaN screens cannot see.
    Only the physics health monitors (the EWMA drift detector on the
    expansion-corrected thermal residual) catch it, steps before the
    validator's cumulative conservation band would.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FAULT_KINDS = (
    "kill_rank",
    "corrupt_kernel",
    "stall_collective",
    "fail_checkpoint",
    "leak_energy",
)
CORRUPTION_MODES = ("nan", "inf", "bitflip")

#: ``step=ANY_STEP`` / ``rank=ANY_RANK`` match any step / rank
ANY_STEP = -1
ANY_RANK = -1

_KIND_ALIASES = {
    "kill": "kill_rank",
    "kill_rank": "kill_rank",
    "corrupt": "corrupt_kernel",
    "corrupt_kernel": "corrupt_kernel",
    "stall": "stall_collective",
    "stall_collective": "stall_collective",
    "ckptfail": "fail_checkpoint",
    "fail_checkpoint": "fail_checkpoint",
    "leak": "leak_energy",
    "leak_energy": "leak_energy",
}


class InjectedFault(RuntimeError):
    """Base class of every injector-raised failure."""


class RankKilled(InjectedFault):
    """The injected death of one rank thread."""

    def __init__(self, rank: int, step: int):
        super().__init__(f"rank {rank} killed by fault injection at step {step}")
        self.rank = rank
        self.step = step


class CheckpointWriteFault(InjectedFault):
    """An injected failure in the middle of a checkpoint write."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault event.

    ``step`` and ``rank`` of :data:`ANY_STEP` / :data:`ANY_RANK` match
    the first opportunity.  ``kernel`` names the timer of the targeted
    kernel output (``upGeo`` ... ``upBarDuF``) for ``corrupt_kernel``;
    ``collective`` optionally restricts a stall to one collective kind
    (``allreduce``, ``barrier``, ...).
    """

    kind: str
    step: int = ANY_STEP
    rank: int = ANY_RANK
    kernel: str | None = None
    mode: str = "nan"
    count: int = 1
    duration: float = 1.0
    collective: str | None = None
    #: per-step energy-loss fraction for ``leak_energy``
    rate: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {FAULT_KINDS}")
        if self.kind == "corrupt_kernel":
            if self.kernel is None:
                raise ValueError("corrupt_kernel faults need a kernel= timer name")
            if self.mode not in CORRUPTION_MODES:
                raise ValueError(
                    f"unknown corruption mode {self.mode!r}; use {CORRUPTION_MODES}"
                )
            if self.count < 1:
                raise ValueError("corruption count must be >= 1")
        if self.kind == "stall_collective" and self.duration <= 0:
            raise ValueError("stall duration must be positive")
        if self.kind == "leak_energy":
            if not 0.0 < self.rate < 1.0:
                raise ValueError("leak rate must be in (0, 1)")
            if self.count < 1:
                raise ValueError("leak step count must be >= 1")

    def matches_step(self, step: int) -> bool:
        return self.step in (ANY_STEP, step)

    def matches_rank(self, rank: int) -> bool:
        return self.rank in (ANY_RANK, rank)

    def describe(self) -> str:
        where = f"rank {'any' if self.rank == ANY_RANK else self.rank}"
        when = f"step {'any' if self.step == ANY_STEP else self.step}"
        extra = ""
        if self.kind == "corrupt_kernel":
            extra = f" kernel={self.kernel} mode={self.mode} count={self.count}"
        elif self.kind == "stall_collective":
            extra = f" collective={self.collective or 'any'} duration={self.duration}s"
        elif self.kind == "leak_energy":
            extra = f" rate={self.rate} count={self.count}"
        return f"{self.kind}[{where}, {when}{extra}]"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of fault events."""

    faults: tuple[FaultSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the CLI syntax, e.g.::

            kill:rank=3,step=1;corrupt:kernel=upBarAc,step=2,mode=nan

        Events are ``;``-separated; each is ``kind:key=value,...`` with
        the kinds ``kill``, ``corrupt``, ``stall``, and ``ckptfail``.
        """
        specs = []
        for clause in filter(None, (c.strip() for c in text.split(";"))):
            kind_token, _, arg_text = clause.partition(":")
            kind = _KIND_ALIASES.get(kind_token.strip())
            if kind is None:
                raise ValueError(
                    f"unknown fault kind {kind_token!r}; "
                    f"use {sorted(set(_KIND_ALIASES))}"
                )
            kwargs: dict[str, object] = {}
            for pair in filter(None, (p.strip() for p in arg_text.split(","))):
                key, _, value = pair.partition("=")
                key = key.strip()
                value = value.strip()
                if key in ("step", "rank", "count"):
                    kwargs[key] = int(value)
                elif key in ("duration", "rate"):
                    kwargs[key] = float(value)
                elif key in ("kernel", "mode", "collective"):
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault parameter {key!r} in {clause!r}")
            specs.append(FaultSpec(kind=kind, **kwargs))
        return cls(faults=tuple(specs), seed=seed)

    def check_ranks(self, world_size: int) -> None:
        """Raise :class:`ValueError` when a fault names a rank outside
        a world of ``world_size`` (such a fault would never fire)."""
        outside = sorted(
            {s.rank for s in self.faults if s.rank != ANY_RANK}
            - set(range(world_size))
        )
        if outside:
            raise ValueError(
                f"fault plan names rank(s) {outside} outside a world of "
                f"{world_size} rank(s)"
            )

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: empty"
        lines = [f"fault plan (seed {self.seed}):"]
        lines.extend(f"  - {spec.describe()}" for spec in self.faults)
        return "\n".join(lines)


@dataclass(frozen=True)
class FiredFault:
    """Audit record of one fired fault."""

    spec: FaultSpec
    rank: int
    step: int
    detail: str


class FaultInjector:
    """Arms a :class:`FaultPlan`; thread-safe; each spec fires once.

    Share one injector across all ranks of a world and across restart
    attempts so recovery does not replay the same fault forever.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._lock = threading.Lock()
        self._armed: list[FaultSpec] = list(plan.faults)
        self._fired: list[FiredFault] = []
        #: leak specs neutralised by :meth:`reset_transients` after
        #: firing once (a transient does not replay across restarts)
        self._cancelled_leaks: set[int] = set()
        #: optional audit callback, called (outside the injector lock,
        #: on the firing rank's thread) with each FiredFault — the
        #: observability layer turns these into trace events
        self.observer: Callable[[FiredFault], None] | None = None

    # ------------------------------------------------------------------
    @property
    def fired(self) -> list[FiredFault]:
        with self._lock:
            return list(self._fired)

    def _claim(
        self, predicate: Callable[[FaultSpec], bool], rank: int, step: int, detail: str
    ) -> FaultSpec | None:
        """Atomically fire-and-disarm the first matching spec."""
        fired: FiredFault | None = None
        with self._lock:
            for i, spec in enumerate(self._armed):
                if predicate(spec):
                    del self._armed[i]
                    fired = FiredFault(spec=spec, rank=rank, step=step, detail=detail)
                    self._fired.append(fired)
                    break
        if fired is not None:
            if self.observer is not None:
                self.observer(fired)
            return fired.spec
        return None

    # -- the four fault kinds ------------------------------------------
    def on_step_start(self, rank: int, step: int) -> None:
        """Kill point: raises :class:`RankKilled` if planned here."""
        spec = self._claim(
            lambda s: (
                s.kind == "kill_rank"
                and s.matches_rank(rank)
                and s.matches_step(step)
            ),
            rank,
            step,
            "rank thread killed",
        )
        if spec is not None:
            raise RankKilled(rank, step)

    def corrupt_kernel(
        self, name: str, step: int, rank: int, outputs: dict[str, np.ndarray]
    ) -> FaultSpec | None:
        """Corrupt a kernel's output arrays in place if planned.

        ``nan``/``inf`` overwrite ``count`` seeded-random elements;
        ``bitflip`` XORs one high exponent bit per element (silent
        data corruption — typically huge-but-finite values the NaN
        screen cannot see, which is what checksums and the validator
        are for).
        """
        spec = self._claim(
            lambda s: (
                s.kind == "corrupt_kernel"
                and s.kernel == name
                and s.matches_rank(rank)
                and s.matches_step(step)
            ),
            rank,
            step,
            f"corrupted output of {name}",
        )
        if spec is None:
            return None
        with self._lock:
            for arr in outputs.values():
                flat = arr.reshape(-1)
                if flat.size == 0:
                    continue
                n = min(spec.count, flat.size)
                targets = self._rng.choice(flat.size, size=n, replace=False)
                if spec.mode == "nan":
                    flat[targets] = np.nan
                elif spec.mode == "inf":
                    flat[targets] = np.inf
                else:  # bitflip
                    bits = flat[targets].view(np.uint64) ^ np.uint64(1 << 62)
                    flat[targets] = bits.view(np.float64)
                break  # corrupt the kernel's primary output only
        return spec

    def collective_hook(self) -> Callable[[str, int], None]:
        """A :attr:`SimWorld.pre_collective_hook` that sleeps the
        targeted rank through a planned stall."""

        def hook(kind: str, rank: int) -> None:
            spec = self._claim(
                lambda s: (
                    s.kind == "stall_collective"
                    and s.matches_rank(rank)
                    and (s.collective is None or s.collective == kind)
                ),
                rank,
                ANY_STEP,
                f"stalled {kind}",
            )
            if spec is not None:
                time.sleep(spec.duration)

        return hook

    def drain_energy(self, driver, rank: int, step: int) -> bool:
        """Leak point: bleed the gas internal energy if a leak window
        covers ``step``.

        Called by every rank at the start of every step.  A leak's
        window is a pure function of its spec — steps ``[start, start +
        count)`` with ``start = max(spec.step, 0)`` — so replicated
        lockstep ranks apply the *same* multiplicative drain at the
        same steps and the divergence checksum does not misread the
        fault as silent per-rank corruption (leaks deliberately ignore
        ``rank`` targeting for the same reason).  The first rank to
        enter a window claims the spec, recording the single audit
        :class:`FiredFault`.  Returns True when a drain was applied.
        """
        applied = False
        for spec in self.plan.faults:
            if spec.kind != "leak_energy":
                continue
            with self._lock:
                if id(spec) in self._cancelled_leaks:
                    continue
            start = max(spec.step, 0)
            if start <= step < start + spec.count:
                self._claim(
                    lambda s: s is spec, rank, step, "energy leak window opened"
                )
                from repro.hacc import eos

                p = driver.particles
                p.u[:] *= 1.0 - spec.rate
                eos.update_thermodynamics(p)
                applied = True
        return applied

    def reset_transients(self) -> None:
        """Close fired transient fault windows (call at attempt start).

        A leak is transient hardware/software misbehaviour: once it has
        fired and the run rolls back, the restart attempt must run
        clean rather than replay the leak forever — exactly the
        checkpoint/restart recovery model.  Leaks that have not started
        yet stay armed.
        """
        with self._lock:
            for fired in self._fired:
                if fired.spec.kind == "leak_energy":
                    self._cancelled_leaks.add(id(fired.spec))

    def fail_checkpoint_write(self, step: int, tmp_path) -> None:
        """Checkpoint-write fault point: tears the in-flight temp file
        and raises :class:`CheckpointWriteFault` if planned."""
        spec = self._claim(
            lambda s: s.kind == "fail_checkpoint" and s.matches_step(step),
            ANY_RANK,
            step,
            "checkpoint write aborted mid-flight",
        )
        if spec is not None:
            # model a torn write: garbage lands in the temp file, the
            # rename never happens
            tmp_path.write_bytes(b"PK\x03\x04 torn checkpoint write")
            raise CheckpointWriteFault(
                f"checkpoint write at step {step} failed by fault injection"
            )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        fired = self.fired
        if not fired:
            return "fault injector: nothing fired"
        lines = [f"fault injector: {len(fired)} event(s) fired"]
        lines.extend(
            f"  - {f.spec.kind} at rank {f.rank}, step {f.step}: {f.detail}"
            for f in fired
        )
        return "\n".join(lines)
