"""The fault-tolerant multi-rank simulation runner.

:func:`run_simulation` executes the adiabatic mini-app on a simulated
MPI world with the full resilience stack threaded through it:

- every rank advances a *replicated* deterministic driver in lockstep
  (the physics in this reproduction is global — see
  ``examples/multirank_simulation.py`` — so replication plus a
  per-step cross-rank agreement check stands in for a domain-split
  integrator, exactly as strong as the collectives that coordinate
  it);
- each step ends in an ``allgather`` of the step diagnostics: that
  rendezvous is both the health heartbeat (a dead rank turns it into
  :class:`~repro.hacc.mpi_sim.RankFailure` on every survivor within
  the timeout) and a divergence detector (replicas must agree
  bit-for-bit; silent corruption on one rank trips
  :class:`DivergenceError`);
- after each judged step every rank keeps a
  :class:`SimulationCheckpoint` of it as its rollback point, and the
  lowest rank writes periodic :class:`SimulationCheckpoint` files
  through the :class:`CheckpointManager`; an injected
  checkpoint-write fault is absorbed (the run continues on the older
  restart point — losing a checkpoint must not lose the run);
- the same ``allgather`` carries each rank's read of the caller's
  preemption request, so every rank stops after the same step; the
  lowest rank checkpoints that step and the result is marked
  preempted, to be resumed with ``restart_from``;
- when an attempt degrades or dies, the degradation policy (one of
  :data:`~repro.resilience.degrade.DEGRADE_POLICIES`) decides the
  response.  Under ``shrink`` the survivors agree on the failure
  set (:meth:`SimComm.agree`), each rolls back to its own rollback
  point (the replicas agreed on every step up to it, so all survivors
  hold the same state), form a smaller communicator
  (:meth:`SimComm.shrunk`) and continue at reduced size, never
  touching disk.  Under ``restart`` (the default) the world is torn
  down and every rank replays from the newest *valid* disk
  checkpoint, with the checkpoint cadence halved and the
  inter-attempt delay drawn from the shared
  :class:`~repro.resilience.backoff.BackoffPolicy`.  When the ladder
  ends, or the :class:`~repro.resilience.guards.RetryPolicy` budget
  is exhausted, :class:`SimulationAborted` carries the full attempt
  history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from repro.hacc.mpi_sim import RankFailure, SimComm, SimWorld
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig, StepDiagnostics
from repro.hacc.validation import ValidationReport, validate_run
from repro.observability.health import (
    Alert,
    HealthEscalation,
    HealthMonitor,
    default_monitor,
)
from repro.resilience.degrade import DEGRADE_POLICIES, DegradationEvent
from repro.resilience.faults import (
    CheckpointWriteFault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)
from repro.resilience.guards import GuardError, KernelGuard, RetryPolicy
from repro.resilience.restart import CheckpointManager, SimulationCheckpoint


class DivergenceError(GuardError):
    """Replicated ranks disagreed on the step diagnostics."""


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of the recovery loop."""

    attempt: int
    outcome: str  # "completed" | "degraded" | "failed" | "preempted"
    failure: str | None = None
    dead_ranks: tuple[int, ...] = ()
    obituaries: tuple[str, ...] = ()
    restarted_from_step: int | None = None
    degradations: tuple[DegradationEvent, ...] = ()


@dataclass
class SimulationResult:
    """Outcome of a (possibly recovered) fault-tolerant run."""

    driver: AdiabaticDriver
    report: ValidationReport
    world_size: int
    attempts: list[AttemptRecord]
    checkpoints: list[Path] = field(default_factory=list)
    checkpoint_write_failures: int = 0
    final_world_size: int | None = None
    #: health-detector alerts raised across all attempts (rank 0's
    #: monitor; replicated ranks raise identical alerts)
    health_alerts: list[Alert] = field(default_factory=list)
    #: the final attempt's rank-0 monitor (series + alert log)
    health_monitor: HealthMonitor | None = None

    def __post_init__(self):
        if self.final_world_size is None:
            self.final_world_size = self.world_size

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def preempted(self) -> bool:
        """Did the run stop early on a preemption request?"""
        return self.attempts[-1].outcome == "preempted"

    @property
    def recovered(self) -> bool:
        """Did the run survive at least one failed attempt?"""
        return len(self.attempts) > 1

    @property
    def degradations(self) -> tuple[DegradationEvent, ...]:
        """Every degradation event across all attempts, in order."""
        return tuple(e for rec in self.attempts for e in rec.degradations)

    @property
    def degraded(self) -> bool:
        """Did the run finish at reduced world size (shrink taken)?"""
        return self.final_world_size < self.world_size

    def summary(self) -> str:
        size = f"{self.world_size} rank(s)"
        if self.degraded:
            size += f" (finished on {self.final_world_size})"
        lines = [
            f"run: {len(self.attempts)} attempt(s) on {size}, "
            f"{self.driver.step_index} step(s) completed"
        ]
        for rec in self.attempts:
            line = f"  attempt {rec.attempt}: {rec.outcome}"
            if rec.failure:
                line += f" ({rec.failure})"
            if rec.restarted_from_step is not None:
                line += f"; restarted from step {rec.restarted_from_step}"
            lines.append(line)
            for event in rec.degradations:
                lines.append(f"    {event.describe()}")
        if self.checkpoint_write_failures:
            lines.append(
                f"  checkpoint writes absorbed: {self.checkpoint_write_failures} failure(s)"
            )
        lines.append("  " + self.report.summary().replace("\n", "\n  "))
        return "\n".join(lines)


class SimulationAborted(RuntimeError):
    """The degradation ladder ended before the run completed."""

    def __init__(self, message: str, attempts: list[AttemptRecord]):
        super().__init__(message)
        self.attempts = tuple(attempts)


def run_simulation(
    config: SimulationConfig | None = None,
    *,
    world_size: int = 8,
    timeout: float | None = 30.0,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    restart_from: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    degrade_policy: str = "restart",
    echo: Callable[[str], None] | None = None,
    tracer=None,
    metrics=None,
    on_step: Callable[[AdiabaticDriver, StepDiagnostics], None] | None = None,
    stop: Callable[[], bool] | None = None,
) -> SimulationResult:
    """Run the mini-app fault-tolerantly on ``world_size`` ranks.

    Returns a :class:`SimulationResult` whose validation report is the
    final gate; raises :class:`SimulationAborted` when the degradation
    ladder (or the :class:`RetryPolicy` budget) is exhausted.
    ``fault_plan`` makes the failures; ``checkpoint_dir`` +
    ``checkpoint_every`` make the disk recovery tier; ``restart_from``
    resumes an earlier run's checkpoint file.  ``world_size`` may be 1:
    one rank, with the same guards, judge and recovery.

    ``on_step(driver, diag)`` follows the run: it is called on the
    lowest live rank once a step is agreed, once per step index, also
    across a restart (a step replayed from a checkpoint is not
    announced again, nor is one before ``restart_from``).  ``stop()``
    is a preemption request, read by every rank after each step: when
    any rank reads true, all ranks stop after that step, the lowest
    writes it through the checkpoint manager and the result is marked
    ``preempted`` (its last ``checkpoints`` entry resumes the run).
    A ``fault_plan`` naming a rank outside the world raises
    :class:`ValueError`.

    ``degrade_policy`` selects the escalation ladder, one of
    :data:`~repro.resilience.degrade.DEGRADE_POLICIES`; an unknown
    name raises :class:`ValueError`.  The default, ``"restart"``,
    tears the world down and replays from disk;
    ``"shrink"`` opts in to shrink-and-continue recovery: the survivors
    roll back to their last agreed step in memory.

    ``tracer`` (a :class:`~repro.observability.tracing.TraceRecorder`)
    and ``metrics`` (a
    :class:`~repro.observability.metrics.MetricsRegistry`) thread the
    observability layer through the whole run: each rank's steps,
    kernels, and collectives land on that rank's track of the shared
    timeline, and injected faults, rank deaths, shrinks, checkpoint
    writes, and recovery attempts become trace events/counters.

    Every rank's driver is judged by its health monitor
    (:func:`~repro.observability.health.default_monitor`) on every
    step: a FATAL alert (e.g. the EWMA drift detector catching a slow
    energy leak, or a broken state invariant) raises
    :class:`~repro.observability.health.HealthEscalation` at the step
    boundary, and the run rolls back and retries from checkpoint
    exactly as it would for a NaN guard.
    """
    if degrade_policy not in DEGRADE_POLICIES:
        raise ValueError(
            f"unknown degradation policy {degrade_policy!r}; "
            f"choose from {DEGRADE_POLICIES}"
        )
    if fault_plan is not None:
        fault_plan.check_ranks(world_size)
    config = config or SimulationConfig()
    retry_policy = retry_policy or RetryPolicy()
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    say = echo or (lambda _msg: None)

    if injector is not None and (tracer is not None or metrics is not None):

        def _observe_fault(fired) -> None:
            if metrics is not None:
                metrics.counter("resilience.faults_injected").inc()
            if tracer is not None:
                tracer.instant(
                    f"fault:{fired.spec.kind}",
                    category="fault",
                    rank=fired.rank,
                    step=fired.step,
                    detail=fired.detail,
                )

        injector.observer = _observe_fault

    manager: CheckpointManager | None = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(
            checkpoint_dir,
            every=checkpoint_every,
            injector=injector,
            metrics=metrics,
            tracer=tracer,
            io_backoff=retry_policy.backoff,
        )

    start: SimulationCheckpoint | None = None
    if restart_from is not None:
        start = SimulationCheckpoint.load(restart_from)
        message = f"restarting from checkpoint at step {start.step_index}"
        if start.config != config:
            # the checkpoint's embedded config is authoritative: the
            # schedule must match the state being resumed
            differs = [
                f"{f.name}={getattr(start.config, f.name)}"
                for f in fields(config)
                if getattr(start.config, f.name) != getattr(config, f.name)
            ]
            message += f" under its own config ({', '.join(differs)})"
            config = start.config
        say(message)
    #: the highest step index ``on_step`` has announced
    published = start.step_index if start is not None else 0

    attempts: list[AttemptRecord] = []
    health_alerts: list[Alert] = []
    lead_monitors: dict[int, HealthMonitor] = {}

    for attempt in range(retry_policy.max_retries + 1):
        if injector is not None:
            # a fired transient (e.g. an energy leak) must not replay
            # into the restarted attempt
            injector.reset_transients()
        world = SimWorld(world_size, timeout=timeout, tracer=tracer, metrics=metrics)
        if injector is not None:
            world.pre_collective_hook = injector.collective_hook()
        final_drivers: dict[int, AdiabaticDriver] = {}
        degradation_events: list[DegradationEvent] = []
        restarted_from = start.step_index if start is not None else None

        def rank_fn(comm: SimComm) -> int:
            nonlocal published
            grank = comm.global_rank

            def _arm(driver: AdiabaticDriver) -> SimulationCheckpoint:
                """Wire a freshly built or rolled-back driver into this
                attempt; returns its rollback point."""
                driver.tracer = tracer
                driver.metrics = metrics
                # every rank judges its own (replicated, deterministic)
                # physics with the fresh monitor its driver was built or
                # restored with, so all ranks escalate at the same step;
                # only rank 0's monitor owns the sinks — shared counters,
                # trace tracks, and the result's alert log must not be
                # multiplied by the world size
                if grank == 0:
                    driver.health = default_monitor(
                        tracer=tracer, metrics=metrics, on_alert=health_alerts.append
                    )
                    lead_monitors[attempt] = driver.health
                KernelGuard(metrics=metrics).install(
                    driver, injector=injector, rank=grank
                )
                return SimulationCheckpoint.capture(driver)

            if start is not None:
                driver = start.restore_driver()
            else:
                driver = AdiabaticDriver(config=config)
            rollback = _arm(driver)
            shrinks_done = 0
            while not driver.finished:
                step = driver.step_index
                try:
                    if injector is not None:
                        injector.on_step_start(grank, step)  # may raise RankKilled
                        injector.drain_energy(driver, grank, step)
                    diag = driver.advance()
                    driver.health.escalate()  # may raise HealthEscalation
                    # heartbeat + replica agreement: every rank must
                    # both arrive (else RankFailure) and agree
                    # bit-for-bit; each also says whether it read a
                    # preemption request, so all stop at this step
                    gathered = comm.allgather(
                        (
                            diag.kinetic_energy,
                            diag.thermal_energy,
                            stop is not None and bool(stop()),
                        )
                    )
                    digests = [g[:2] for g in gathered]
                    if any(d != digests[0] for d in digests[1:]):
                        raise DivergenceError(
                            f"replicated ranks diverged at step {step}: {digests}"
                        )
                    preempt = not driver.finished and any(g[2] for g in gathered)
                    # agreed and judged: this step is the new
                    # rollback point for shrink recovery
                    rollback = SimulationCheckpoint.capture(driver)
                    if comm.Get_rank() == 0:
                        if manager is not None:
                            save = manager.save_now if preempt else manager.maybe_save
                            try:
                                save(driver)
                            except CheckpointWriteFault as exc:
                                # losing a checkpoint must not lose the run
                                say(
                                    "checkpoint write failed at step "
                                    f"{driver.step_index}: {exc}"
                                )
                        if on_step is not None and driver.step_index > published:
                            published = driver.step_index
                            on_step(driver, diag)
                    comm.barrier()
                    if preempt:
                        break
                except RankFailure as exc:
                    if degrade_policy != "shrink":
                        raise
                    # ULFM failure detector: a live-but-absent peer is
                    # declared dead before the agreement, so the
                    # tolerant rendezvous excludes it (the stalled
                    # thread later finds itself dead and exits)
                    for missing in exc.missing_ranks:
                        world.mark_rank_dead(
                            missing,
                            exc,
                            reason="declared dead: absent from collective",
                        )
                    # raises if this rank was itself declared dead, so
                    # the survivors always include it
                    outcome = comm.agree()
                    survivors = outcome.survivors
                    dead = tuple(sorted(set(comm.group) - set(survivors)))
                    # the replicas agreed on every step up to the
                    # rollback point, so each survivor's own copy is the
                    # state every other survivor rolls back to
                    driver = rollback.restore_driver()
                    rollback = _arm(driver)
                    comm = comm.shrunk(survivors)
                    shrinks_done += 1
                    event = DegradationEvent(
                        step=rollback.step_index,
                        action="shrink",
                        dead_ranks=dead,
                        survivors=survivors,
                        reason=f"shrinking to {len(survivors)} rank(s)",
                    )
                    if grank == survivors[0]:
                        degradation_events.append(event)
                        if tracer is not None:
                            tracer.instant(
                                "degrade",
                                category="resilience",
                                action="shrink",
                                step=event.step,
                                dead_ranks=list(dead),
                                survivors=list(survivors),
                            )
                        say(event.describe())
                    # stabilisation pause: give declared-dead threads
                    # their wakeup before the survivors press on
                    retry_policy.backoff.sleep(shrinks_done - 1, metrics=metrics)
            final_drivers[grank] = driver
            return driver.step_index

        results, errors = world.run_outcomes(rank_fn)
        completed = [r for r in range(world_size) if errors[r] is None]
        failed = [r for r in range(world_size) if errors[r] is not None]

        if completed:
            # the run finished — at full size, or degraded but alive
            lead = min(completed)
            driver = final_drivers[lead]
            # the replicas go now, by reference count: every attempt's
            # rank_fn shares this closure cell, and a failed attempt's
            # is kept by its exceptions until the cyclic collector runs
            final_drivers.clear()
            degraded = bool(failed) or bool(degradation_events)
            if degraded and metrics is not None:
                metrics.counter("sim.resilience.degraded").inc()
            obits = world.obituaries
            if not driver.finished:
                outcome = "preempted"
            else:
                outcome = "degraded" if degraded else "completed"
            attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    outcome=outcome,
                    dead_ranks=tuple(sorted(obits)),
                    obituaries=tuple(
                        f"rank {r}: {o.reason}" for r, o in sorted(obits.items())
                    ),
                    restarted_from_step=restarted_from,
                    degradations=tuple(degradation_events),
                )
            )
            report = validate_run(driver)
            return SimulationResult(
                driver=driver,
                report=report,
                world_size=world_size,
                attempts=attempts,
                checkpoints=list(manager.written) if manager is not None else [],
                checkpoint_write_failures=(
                    manager.write_failures if manager is not None else 0
                ),
                final_world_size=world_size - len(failed),
                health_alerts=health_alerts,
                health_monitor=lead_monitors.get(attempt),
            )

        # every rank died: classify and walk the restart/abort rungs.
        # The *root-cause* exception is preferred: if one rank died of
        # a real error and the others of the induced RankFailure, the
        # real error is what the history (or the re-raise) names.
        exc = next(
            (e for e in errors if e is not None and not isinstance(e, RankFailure)),
            next(e for e in errors if e is not None),
        )
        if not isinstance(
            exc, (InjectedFault, RankFailure, GuardError, HealthEscalation)
        ):
            raise exc
        obits = world.obituaries
        record = AttemptRecord(
            attempt=attempt,
            outcome="failed",
            failure=f"{type(exc).__name__}: {exc}",
            dead_ranks=tuple(sorted(obits)),
            obituaries=tuple(
                f"rank {r}: {o.reason}" for r, o in sorted(obits.items())
            ),
            restarted_from_step=restarted_from,
            degradations=tuple(degradation_events),
        )
        attempts.append(record)
        if tracer is not None:
            tracer.instant(
                "attempt-failed",
                category="resilience",
                attempt=attempt,
                failure=record.failure,
                dead_ranks=list(record.dead_ranks),
            )
        say(
            f"attempt {attempt} failed ({type(exc).__name__}); "
            f"dead ranks: {sorted(obits)}"
        )
        if degrade_policy == "abort":
            raise SimulationAborted(
                f"run lost after {len(attempts)} attempt(s) "
                f"(policy {degrade_policy!r} forbids restart): {exc}",
                attempts,
            ) from exc
        if attempt == retry_policy.max_retries:
            raise SimulationAborted(
                f"run lost after {len(attempts)} attempt(s): {exc}", attempts
            ) from exc
        # recover: newest valid checkpoint wins; otherwise restart
        # from the original starting point
        recovered = (
            manager.latest(config=config) if manager is not None else None
        )
        if recovered is not None:
            start = recovered
            say(f"recovering from checkpoint at step {recovered.step_index}")
        if manager is not None:
            manager.tighten()
        if metrics is not None:
            metrics.counter("resilience.retries").inc()
        if tracer is not None:
            tracer.instant(
                "retry",
                category="resilience",
                attempt=attempt + 1,
                restart_step=recovered.step_index if recovered else 0,
            )
        retry_policy.backoff.sleep(attempt, metrics=metrics)

    raise AssertionError("unreachable: retry loop must return or raise")
