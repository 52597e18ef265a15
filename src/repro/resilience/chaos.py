"""Chaos soak: randomized fault plans against one hard invariant.

Scripted fault scenarios (the ``tests/resilience`` suite) prove the
recovery paths *we thought of*.  A chaos soak probes the ones we did
not: :func:`random_fault_plan` draws a seeded random
:class:`~repro.resilience.faults.FaultPlan` — kills, kernel
corruptions, collective stalls, torn checkpoint writes, at random
ranks and steps — and :func:`run_chaos_plan` runs the full resilience
stack under it, checking the **termination invariant**:

    every run either *completes* with physics matching the fault-free
    reference to accumulation tolerance, or raises
    :class:`~repro.resilience.runner.SimulationAborted` with a
    coherent attempt history — never hangs, never silently diverges.

:func:`soak` runs N seeded plans and aggregates a
:class:`ChaosReport`; ``tools/chaos_soak.py`` is the CLI wrapper and
``tests/resilience/test_chaos.py`` pins fixed seeds in CI.  Everything
is deterministic in ``(base_seed, index)``, so any soak failure is
replayable as ``run_chaos_plan(seed)``.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.guards import RetryPolicy
from repro.resilience.runner import SimulationAborted, run_simulation

#: kernels the corruption faults may target (hot adiabatic timers)
CHAOS_KERNELS = ("upGeo", "upBarEx", "upBarAc", "upBarDu")

#: collective kinds a stall may target (the per-step rendezvous)
CHAOS_COLLECTIVES = ("allgather", "barrier")

#: relative tolerance for "physics matches the fault-free reference";
#: recovery replays the same deterministic arithmetic, so matches are
#: typically exact — the allowance covers accumulation-order effects
PHYSICS_RTOL = 1e-9

#: the soak's tiny default problem: the smallest box with untruncated
#: SPH support, small enough that 30+ runs stay in CI budget
DEFAULT_WORLD_SIZE = 3
DEFAULT_TIMEOUT = 0.75


def chaos_config(n_steps: int = 2) -> SimulationConfig:
    return SimulationConfig(n_per_side=6, n_steps=n_steps)


_reference_cache: dict[tuple, list] = {}


def reference_diagnostics(config: SimulationConfig) -> list:
    """Fault-free reference diagnostics for ``config`` (cached)."""
    key = (config.n_per_side, config.pm_mesh, config.n_steps)
    if key not in _reference_cache:
        driver = AdiabaticDriver(config)
        driver.run()
        _reference_cache[key] = list(driver.diagnostics)
    return _reference_cache[key]


def random_fault_plan(
    seed: int,
    *,
    world_size: int = DEFAULT_WORLD_SIZE,
    n_steps: int = 2,
    max_faults: int = 2,
    timeout: float = DEFAULT_TIMEOUT,
) -> FaultPlan:
    """A seeded random fault plan (1..``max_faults`` events).

    Ranks and steps are always pinned (no ``ANY`` wildcards), so the
    plan text alone describes exactly what will happen; stall
    durations are sized to overrun the collective ``timeout``.
    """
    rng = np.random.default_rng(seed)
    n_faults = int(rng.integers(1, max_faults + 1))
    specs: list[FaultSpec] = []
    for _ in range(n_faults):
        kind = ("kill", "corrupt", "stall", "ckptfail")[int(rng.integers(0, 4))]
        step = int(rng.integers(0, n_steps))
        rank = int(rng.integers(0, world_size))
        if kind == "kill":
            specs.append(FaultSpec(kind="kill_rank", rank=rank, step=step))
        elif kind == "corrupt":
            specs.append(
                FaultSpec(
                    kind="corrupt_kernel",
                    rank=rank,
                    step=step,
                    kernel=CHAOS_KERNELS[int(rng.integers(0, len(CHAOS_KERNELS)))],
                    mode=("nan", "inf", "bitflip")[int(rng.integers(0, 3))],
                )
            )
        elif kind == "stall":
            specs.append(
                FaultSpec(
                    kind="stall_collective",
                    rank=rank,
                    collective=CHAOS_COLLECTIVES[
                        int(rng.integers(0, len(CHAOS_COLLECTIVES)))
                    ],
                    duration=2.0 * timeout,
                )
            )
        else:
            specs.append(FaultSpec(kind="fail_checkpoint", step=step))
    return FaultPlan(faults=tuple(specs), seed=seed)


@dataclass(frozen=True)
class ChaosOutcome:
    """One chaos run against the termination invariant."""

    seed: int
    plan: str
    status: str  # "completed" | "aborted"
    attempts: int
    degraded: bool
    shrinks: int
    physics_ok: bool | None  # None when the run aborted
    history_ok: bool
    elapsed: float

    @property
    def ok(self) -> bool:
        """Does this run satisfy the invariant?"""
        if self.status == "completed":
            return bool(self.physics_ok) and self.history_ok
        return self.history_ok

    def describe(self) -> str:
        verdict = "ok" if self.ok else "INVARIANT VIOLATED"
        extra = f", {self.shrinks} shrink(s)" if self.shrinks else ""
        return (
            f"seed {self.seed}: {self.status} in {self.attempts} attempt(s)"
            f"{extra} ({self.elapsed:.2f}s) [{verdict}]  {self.plan}"
        )


@dataclass
class ChaosReport:
    """Aggregate of one soak."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def invariant_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def n_completed(self) -> int:
        return sum(o.status == "completed" for o in self.outcomes)

    @property
    def n_aborted(self) -> int:
        return sum(o.status == "aborted" for o in self.outcomes)

    @property
    def n_degraded(self) -> int:
        return sum(o.degraded for o in self.outcomes)

    def summary(self) -> str:
        lines = [
            f"chaos soak: {len(self.outcomes)} run(s), "
            f"{self.n_completed} completed ({self.n_degraded} degraded), "
            f"{self.n_aborted} cleanly aborted, "
            f"invariant {'HELD' if self.invariant_ok else 'VIOLATED'}"
        ]
        lines.extend(f"  {o.describe()}" for o in self.outcomes)
        return "\n".join(lines)


def _physics_matches(result_diags: Sequence, reference: Sequence) -> bool:
    if len(result_diags) != len(reference):
        return False
    for got, ref in zip(result_diags, reference):
        if not math.isclose(
            got.kinetic_energy, ref.kinetic_energy, rel_tol=PHYSICS_RTOL
        ):
            return False
        if not math.isclose(
            got.thermal_energy, ref.thermal_energy, rel_tol=PHYSICS_RTOL
        ):
            return False
    return True


def _history_coherent(attempts: Sequence, terminal: str) -> bool:
    """Is the attempt history internally consistent?

    Attempt indices must be sequential from 0; every non-final attempt
    must be a failure (otherwise the run would have returned); an
    aborted run's final attempt must be a failure, a completed run's
    final attempt must not be.
    """
    if not attempts:
        return False
    if [rec.attempt for rec in attempts] != list(range(len(attempts))):
        return False
    if any(rec.outcome != "failed" for rec in attempts[:-1]):
        return False
    last = attempts[-1].outcome
    if terminal == "aborted":
        return last == "failed"
    return last in ("completed", "degraded")


def run_chaos_plan(
    seed: int,
    *,
    degrade_policy: str = "shrink",
    world_size: int = DEFAULT_WORLD_SIZE,
    n_steps: int = 2,
    timeout: float = DEFAULT_TIMEOUT,
    max_retries: int = 2,
    checkpoint_root: str | Path | None = None,
) -> ChaosOutcome:
    """Run one seeded random fault plan; never raises for plan-induced
    failures (an aborted run is a *valid* outcome — the invariant is
    about termination and coherence, not success)."""
    plan = random_fault_plan(
        seed, world_size=world_size, n_steps=n_steps, timeout=timeout
    )
    config = chaos_config(n_steps)
    reference = reference_diagnostics(config)
    retry_policy = RetryPolicy(
        max_retries=max_retries,
        backoff=BackoffPolicy(base_delay=0.01, max_delay=0.1, seed=seed),
    )

    def _run(ckpt_dir: Path) -> ChaosOutcome:
        begin = time.monotonic()
        try:
            result = run_simulation(
                config,
                world_size=world_size,
                timeout=timeout,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=1,
                fault_plan=plan,
                retry_policy=retry_policy,
                degrade_policy=degrade_policy,
            )
        except SimulationAborted as exc:
            return ChaosOutcome(
                seed=seed,
                plan=plan.describe().replace("\n", "; "),
                status="aborted",
                attempts=len(exc.attempts),
                degraded=False,
                shrinks=sum(
                    1
                    for rec in exc.attempts
                    for e in rec.degradations
                    if e.action == "shrink"
                ),
                physics_ok=None,
                history_ok=_history_coherent(exc.attempts, "aborted"),
                elapsed=time.monotonic() - begin,
            )
        return ChaosOutcome(
            seed=seed,
            plan=plan.describe().replace("\n", "; "),
            status="completed",
            attempts=len(result.attempts),
            degraded=result.degraded,
            shrinks=sum(1 for e in result.degradations if e.action == "shrink"),
            physics_ok=(
                _physics_matches(result.driver.diagnostics, reference)
                and result.ok
            ),
            history_ok=_history_coherent(result.attempts, "completed"),
            elapsed=time.monotonic() - begin,
        )

    if checkpoint_root is not None:
        ckpt = Path(checkpoint_root) / f"chaos-{seed}"
        return _run(ckpt)
    with tempfile.TemporaryDirectory(prefix=f"chaos-{seed}-") as tmp:
        return _run(Path(tmp))


def soak(
    n_runs: int,
    *,
    base_seed: int = 0,
    degrade_policy: str = "shrink",
    world_size: int = DEFAULT_WORLD_SIZE,
    n_steps: int = 2,
    timeout: float = DEFAULT_TIMEOUT,
    max_retries: int = 2,
    checkpoint_root: str | Path | None = None,
    echo: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run ``n_runs`` chaos plans seeded ``base_seed + i``."""
    report = ChaosReport()
    for i in range(n_runs):
        outcome = run_chaos_plan(
            base_seed + i,
            degrade_policy=degrade_policy,
            world_size=world_size,
            n_steps=n_steps,
            timeout=timeout,
            max_retries=max_retries,
            checkpoint_root=checkpoint_root,
        )
        report.outcomes.append(outcome)
        if echo is not None:
            echo(outcome.describe())
    return report
