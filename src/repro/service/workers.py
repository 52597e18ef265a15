"""The worker pool: supervised, cacheable, observable job execution.

Each worker is an asyncio task that awaits grants from the
:class:`~repro.service.scheduler.JobScheduler` and runs the granted
job's simulation in an executor thread (``asyncio.to_thread``), so the
event loop — and with it submission, coalescing, and preemption —
stays responsive while NumPy crunches.

Every job runs under :func:`~repro.resilience.runner.run_simulation`
on ``spec.ranks`` ranks (one by default), with its own checkpoint
directory ``job-<id>`` under the service's checkpoint root:

- a fault, a failed guard or a FATAL health alert degrades along the
  job's degradation ladder (shrink to the survivors, retry from
  checkpoint) instead of failing the request.  A job checkpoints once,
  after its final step (``checkpoint_every=spec.n_steps``), so a
  failed attempt replays from the job's start or from its last
  preemption checkpoint; each retry halves the cadence
  (:meth:`~repro.resilience.restart.CheckpointManager.tighten`);
- the job's cooperative preemption flag is the runner's ``stop``
  request: the ranks stop after the same step, the runner checkpoints
  it (the real atomic checksummed disk format), the worker requeues
  the job, and the next grant resumes from that checkpoint — the
  bit-exact restart is what makes service-level preemption free.

The directory goes once the job completes or fails.  Finished products
land in the content-addressed cache under ``result:<spec-hash>``.

Every job's execution is a flame span (``category="job"``) on the
service's :class:`~repro.observability.tracing.TraceRecorder`, with
the driver's step/kernel spans nested inside it, and each completed
step is streamed to the job's subscribers.  With ``events_out`` set,
the service's own instants and counters (job submitted, cache hit,
completed, preempted, failed; queue depth, cache hits) are recorded on
that tracer and streamed, line by line, to the JSONL event log.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.hacc.analysis import measure_power_spectrum
from repro.hacc.halo import fof
from repro.hacc.ic import zeldovich_ics  # noqa: F401 -- bench/layers.py times IC builds here
from repro.hacc.particles import Species
from repro.hacc.timestep import AdiabaticDriver, SimulationConfig, StepDiagnostics
from repro.observability.export import (
    EventLogWriter,
    counter_record,
    header_record,
    instant_record,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder, maybe_span
from repro.resilience import FaultPlan, run_simulation
from repro.service.cache import ContentCache
from repro.service.jobs import Job, JobResult, JobSpec, JobState
from repro.service.scheduler import JobScheduler, TenantQuota


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    #: concurrent worker tasks
    workers: int = 2
    #: result cache budget in bytes
    cache_bytes: int = 256 * 1024 * 1024
    #: per-tenant active-job quota
    quota: TenantQuota = TenantQuota()
    #: root of the per-job checkpoint directories (when None, a temp
    #: dir that shutdown removes)
    checkpoint_dir: str | None = None
    #: live JSONL event log (the dashboard --follow feed), optional
    events_out: str | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("need at least one worker")


class SimulationService:
    """Scheduler + worker pool + cache behind one async facade.

    Lifecycle::

        service = SimulationService(ServiceConfig(workers=2))
        await service.start()
        job = await service.submit(JobSpec(n_per_side=6, n_steps=2))
        result = await job.future
        await service.shutdown()
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        tracer: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or ServiceConfig()
        self.tracer = tracer if tracer is not None else TraceRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = ContentCache(self.config.cache_bytes, metrics=self.metrics)
        self.scheduler = JobScheduler(
            self.config.quota, tracer=self.tracer, metrics=self.metrics
        )
        #: a checkpoint directory the service made is its to remove
        self._owns_checkpoint_root = not self.config.checkpoint_dir
        self._checkpoint_root = Path(
            self.config.checkpoint_dir
            or tempfile.mkdtemp(prefix="repro-service-ckpt-")
        )
        self.events: EventLogWriter | None = None
        if self.config.events_out:
            self.events = EventLogWriter(self.config.events_out)
            self.events.write(header_record({"title": "repro serve"}))
        self._workers: list[asyncio.Task] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._workers = [
            asyncio.create_task(self._worker_loop(wid), name=f"svc-worker-{wid}")
            for wid in range(self.config.workers)
        ]

    async def drain(self) -> None:
        """Wait until every admitted job reaches a terminal state."""
        futures = [job.future for job in self.scheduler.jobs]
        if futures:
            await asyncio.gather(*futures, return_exceptions=True)

    async def shutdown(self, drain: bool = True) -> None:
        if drain:
            await self.drain()
        await self.scheduler.close()
        for task in self._workers:
            await task
        self._workers = []
        if self.events is not None:
            self._log_instant("service-shutdown", jobs=len(self.scheduler.jobs))
            self.events.write({"kind": "metrics", "snapshot": self.metrics.snapshot()})
            self.events.close()
        if self._owns_checkpoint_root:
            shutil.rmtree(self._checkpoint_root, ignore_errors=True)

    # -- live event log ------------------------------------------------
    def _log_instant(self, name: str, **args: Any) -> None:
        """Record a service instant on the tracer and stream it to the log."""
        if self.events is not None:
            inst = self.tracer.instant(name, category="service", **args)
            self.events.write(instant_record(inst))

    def _log_counter(self, name: str, value: float) -> None:
        if self.events is not None:
            sample = self.tracer.counter(name, value, category="service")
            self.events.write(counter_record(sample))

    # -- submission ----------------------------------------------------
    async def submit(
        self,
        spec: JobSpec | dict[str, Any],
        *,
        tenant: str = "default",
        priority: int = 1,
        deadline_in: float | None = None,
    ) -> Job:
        """Admit one request: cache-probe, then schedule (or coalesce).

        A spec whose products are already cached completes immediately
        (``result.from_cache``); otherwise the scheduler queues it —
        or attaches it to an identical in-flight execution.  Raises
        :class:`~repro.service.jobs.SubmissionError` /
        :class:`~repro.service.scheduler.QuotaExceeded` as typed
        rejections.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        spec.validate()
        deadline = (
            asyncio.get_running_loop().time() + deadline_in
            if deadline_in is not None
            else None
        )

        cached = self.cache.get(f"result:{spec.content_hash()}")
        if cached is not None:
            job = Job(
                spec,
                job_id=next(self.scheduler._job_ids),
                tenant=tenant,
                priority=priority,
                deadline=deadline,
            )
            self.scheduler.jobs.append(job)
            self.metrics.counter("svc.jobs.submitted").inc()
            self.metrics.counter("svc.jobs.completed").inc()
            job.finish(dataclasses.replace(cached, from_cache=True))
            self._log_instant("job-cache-hit", job=job.job_id, spec=job.spec_hash[:12])
            return job

        job = await self.scheduler.submit(
            spec, tenant=tenant, priority=priority, deadline=deadline
        )
        self._log_instant(
            "job-submitted",
            job=job.job_id,
            spec=job.spec_hash[:12],
            tenant=tenant,
            state=str(job.state),
        )
        self._log_counter("svc.queue.depth", self.scheduler.depth)
        return job

    # -- worker loop ---------------------------------------------------
    async def _worker_loop(self, wid: int) -> None:
        while True:
            job = await self.scheduler.next_job()
            if job is None:
                return
            await self._run_granted(job, wid)

    async def _run_granted(self, job: Job, wid: int) -> None:
        self.metrics.gauge("svc.workers.busy").add(1)
        loop = asyncio.get_running_loop()

        def publish(event: dict[str, Any]) -> None:
            loop.call_soon_threadsafe(job.publish, event)

        outcome = "failed"
        try:
            # a duplicate that queued behind its leader's completion
            # window would re-execute; the grant-time peek (metrics-
            # silent) catches it without charging a hit or a miss
            cached = self.cache.peek(f"result:{job.spec_hash}")
            if cached is not None:
                outcome = "completed"
                self._complete(job, dataclasses.replace(cached, from_cache=True))
                return
            outcome = await asyncio.to_thread(self._execute_sync, job, wid, publish)
            if outcome == "preempted":
                self.scheduler.requeue(job)
                self._log_instant("job-preempted", job=job.job_id, step=job.steps_done)
                self._log_counter("svc.queue.depth", self.scheduler.depth)
        except Exception as exc:  # noqa: BLE001 — a job must never kill its worker
            self.metrics.counter("svc.jobs.failed").inc()
            self._log_instant("job-failed", job=job.job_id, error=str(exc))
            job.fail(exc)
            self.scheduler.task_done(job)
        finally:
            self.metrics.gauge("svc.workers.busy").add(-1)
            if outcome != "preempted":
                # the checkpoints only ever served this job's recovery
                shutil.rmtree(self._job_dir(job), ignore_errors=True)

    def _complete(self, job: Job, result: JobResult) -> None:
        self.metrics.counter("svc.jobs.completed").inc()
        self._log_instant(
            "job-completed",
            job=job.job_id,
            spec=job.spec_hash[:12],
            steps=result.steps_completed,
            from_cache=result.from_cache,
        )
        if self.events is not None:
            self._log_counter("svc.cache.hits", self.cache.stats().hits)
        job.finish(result)
        self.scheduler.task_done(job)

    # -- synchronous execution core (runs in an executor thread) -------
    def _job_dir(self, job: Job) -> Path:
        return self._checkpoint_root / f"job-{job.job_id}"

    def _execute_sync(
        self, job: Job, wid: int, publish: Callable[[dict[str, Any]], None]
    ) -> str:
        """Run (or resume) the job under the resilience runner; returns
        ``"preempted"`` or ``"completed"``."""
        spec = job.spec
        if job.checkpoint_path is not None:
            self.metrics.counter("svc.jobs.resumed").inc()
            self.tracer.instant(
                "job-resumed", category="service", job=job.job_id, step=job.steps_done
            )

        def on_step(driver: AdiabaticDriver, diag: StepDiagnostics) -> None:
            job.steps_done = driver.step_index
            publish(self._step_event(job, driver.step_index - 1, diag))

        with maybe_span(
            self.tracer,
            f"job {job.job_id}",
            category="job",
            spec=job.spec_hash[:12],
            tenant=job.tenant,
            worker=wid,
            resumed=job.checkpoint_path is not None,
        ):
            run = run_simulation(
                self._sim_config(spec),
                world_size=spec.ranks,
                checkpoint_dir=self._job_dir(job),
                # the final step only, unless a retry tightens it
                checkpoint_every=spec.n_steps,
                restart_from=job.checkpoint_path,
                fault_plan=(
                    FaultPlan.parse(spec.faults, seed=spec.seed) if spec.faults else None
                ),
                degrade_policy=spec.degrade_policy,
                tracer=self.tracer,
                metrics=self.metrics,
                on_step=on_step,
                stop=lambda: job.preempt_requested,
            )
            # a resumed job's history starts with its preempted grants'
            job.attempt_log += run.attempts
            if run.preempted:
                job.checkpoint_path = run.checkpoints[-1] if run.checkpoints else None
                job.state = JobState.PREEMPTED
                self.tracer.instant(
                    "job-preempt-checkpoint",
                    category="service",
                    job=job.job_id,
                    step=run.driver.step_index,
                    path=str(job.checkpoint_path),
                )
                return "preempted"
            result = JobResult(
                spec_hash=job.spec_hash,
                products=self._products(run.driver, spec),
                steps_completed=run.driver.step_index,
                attempts=len(job.attempt_log),
                degraded=any(
                    rec.outcome in ("failed", "degraded") for rec in job.attempt_log
                ),
            )
        self.cache.put(f"result:{job.spec_hash}", result)
        # completion bookkeeping runs on the loop thread for ordering
        # with the subscribers' event queues
        self._finish_from_thread(job, result)
        return "completed"

    def _finish_from_thread(self, job: Job, result: JobResult) -> None:
        loop = job.future.get_loop()
        loop.call_soon_threadsafe(self._complete, job, result)

    @staticmethod
    def _step_event(job: Job, step: int, diag: StepDiagnostics) -> dict[str, Any]:
        """The per-step snapshot streamed to a job's subscribers."""
        return {
            "job": job.job_id,
            "step": step,
            "a": diag.a,
            "kinetic_energy": diag.kinetic_energy,
            "thermal_energy": diag.thermal_energy,
            "max_density_contrast": diag.max_density_contrast,
        }

    @staticmethod
    def _sim_config(spec: JobSpec) -> SimulationConfig:
        return SimulationConfig(
            n_per_side=spec.n_per_side, n_steps=spec.n_steps, seed=spec.seed
        )

    # -- products ------------------------------------------------------
    def _products(self, driver: AdiabaticDriver, spec: JobSpec) -> dict[str, Any]:
        products: dict[str, Any] = {}
        p = driver.particles
        for name in spec.products:
            with maybe_span(self.tracer, f"product:{name}", category="analysis"):
                if name == "diagnostics":
                    diags = driver.diagnostics
                    products[name] = {
                        "a": np.array([d.a for d in diags]),
                        "kinetic_energy": np.array(
                            [d.kinetic_energy for d in diags]
                        ),
                        "thermal_energy": np.array(
                            [d.thermal_energy for d in diags]
                        ),
                        "total_momentum": np.array(
                            [d.total_momentum for d in diags]
                        ),
                        "max_density_contrast": np.array(
                            [d.max_density_contrast for d in diags]
                        ),
                    }
                elif name == "power_spectrum":
                    measurement = measure_power_spectrum(
                        p, n_mesh=max(8, spec.n_per_side)
                    )
                    products[name] = measurement.as_dict()
                elif name == "halo_catalog":
                    dm = p.select(p.species_mask(Species.DARK_MATTER))
                    linking = 0.2 * p.box / spec.n_per_side
                    catalog = fof(dm.positions, p.box, linking, min_members=8)
                    products[name] = {
                        "n_halos": catalog.n_halos,
                        "sizes": catalog.sizes,
                    }
                elif name == "trace":
                    by_kernel = driver.trace.by_kernel()
                    products[name] = {
                        "launches": len(driver.trace.invocations),
                        "calls_by_kernel": {
                            k: len(v) for k, v in sorted(by_kernel.items())
                        },
                        "total_interactions": driver.trace.total_interactions(),
                    }
        return products

    # -- introspection -------------------------------------------------
    def stats(self) -> dict[str, Any]:
        snapshot = self.metrics.snapshot()
        return {
            "jobs": [job.describe() for job in self.scheduler.jobs],
            "queue_depth": self.scheduler.depth,
            "running": len(self.scheduler.running),
            "cache": self.cache.stats().as_dict(),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
        }
