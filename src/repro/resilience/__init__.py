"""Resilience: fault injection, checkpoint/restart, and recovery.

Production CRK-HACC campaigns on Aurora and Frontier survive node
failures through checkpoint/restart discipline, and the paper's own
workflow (Section 7.2) replays kernel state from checkpoint files.
This package gives the reproduction the same property:

- :mod:`repro.resilience.faults` — a seeded, deterministic fault
  injector (rank kills, kernel-output corruption, collective stalls,
  checkpoint-write failures) so every failure scenario is a
  reproducible test case;
- :mod:`repro.resilience.restart` — the one checkpoint format,
  :class:`~repro.resilience.restart.SimulationCheckpoint` files with
  versioned atomic writes and checksums, plus the periodic
  :class:`~repro.resilience.restart.CheckpointManager`;
- :mod:`repro.resilience.guards` — in-flight NaN/Inf screens over the
  hot kernels' outputs and the retry budget;
- :mod:`repro.resilience.runner` — the fault-tolerant multi-rank
  entry point :func:`~repro.resilience.runner.run_simulation`, which
  walks the degradation ladder and retries from the last checkpoint
  with bounded backoff;
- :mod:`repro.resilience.degrade` — the graceful-degradation ladder,
  one of :data:`~repro.resilience.degrade.DEGRADE_POLICIES`
  (shrink-and-continue → restart-world → abort);
- :mod:`repro.resilience.backoff` — the unified
  :class:`~repro.resilience.backoff.BackoffPolicy` (exponential +
  deterministic seeded jitter) behind every transient retry;
- :mod:`repro.resilience.chaos` — the chaos-soak harness: seeded
  random fault plans asserting that every run terminates cleanly with
  correct physics or a coherent abort.
"""

from repro.resilience.backoff import BackoffPolicy
from repro.resilience.chaos import (
    ChaosOutcome,
    ChaosReport,
    random_fault_plan,
    run_chaos_plan,
    soak,
)
from repro.resilience.degrade import DEGRADE_POLICIES, DegradationEvent
from repro.resilience.faults import (
    CheckpointWriteFault,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RankKilled,
)
from repro.resilience.guards import (
    GuardError,
    GuardViolation,
    KernelGuard,
    RetryPolicy,
)
from repro.resilience.restart import (
    CheckpointError,
    CheckpointManager,
    SimulationCheckpoint,
)
from repro.resilience.runner import (
    AttemptRecord,
    SimulationAborted,
    SimulationResult,
    run_simulation,
)

__all__ = [
    "AttemptRecord",
    "BackoffPolicy",
    "ChaosOutcome",
    "ChaosReport",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointWriteFault",
    "DEGRADE_POLICIES",
    "DegradationEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GuardError",
    "GuardViolation",
    "InjectedFault",
    "KernelGuard",
    "RankKilled",
    "RetryPolicy",
    "SimulationAborted",
    "SimulationCheckpoint",
    "SimulationResult",
    "random_fault_plan",
    "run_chaos_plan",
    "run_simulation",
    "soak",
]
