"""The asyncio job scheduler: quotas, fair share, coalescing, preemption.

Ordering
--------
The pending queue is a heap over ``(priority, share, deadline, seq)``:

- ``priority`` — the job's priority class (lower = more urgent);
- ``share`` — the submitting tenant's *backlog index* at enqueue time
  (how many of its jobs were already queued or running).  A tenant
  burst-submitting 50 jobs enqueues them at shares 0..49 while another
  tenant's late pair lands at shares 0..1, so grants interleave
  round-robin across tenants instead of draining the burst first —
  stride-style fair share without re-keying the heap;
- ``deadline`` — absolute event-loop time (``+inf`` when absent);
- ``seq`` — submission order, the final tiebreak (FIFO).

Quotas
------
Each tenant may hold at most ``TenantQuota.max_active`` jobs queued or
running; the next submit raises :class:`QuotaExceeded` (a *typed*
rejection the API maps to a structured error response, never a silent
drop).  Coalesced duplicates ride their leader and do not consume
quota.

Coalescing
----------
A submit whose spec hash matches an in-flight (queued/running/
preempted) job becomes a *follower*: it gets its own job id and
lifecycle record but shares the leader's future, so every duplicate
receives the shared result of the single execution.

Preemption
----------
Deadline-based: when every worker is busy and a queued job is strictly
more urgent (priority, then deadline) than the least-urgent running
job, the victim is asked to preempt.  Its run stops after the step in
flight and checkpoints it; the worker requeues the victim (it keeps its
original ordering key, so it resumes on the next grant of its class)
and takes the urgent job.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass

from repro.service.jobs import Job, JobSpec, JobState, ServiceError

#: deadline used for ordering when a job has none
_NO_DEADLINE = float("inf")


class QuotaExceeded(ServiceError):
    """A tenant's submission exceeded its active-job quota."""

    def __init__(self, tenant: str, limit: int, active: int):
        super().__init__(
            f"tenant {tenant!r} has {active} active job(s), quota is {limit}"
        )
        self.tenant = tenant
        self.limit = limit
        self.active = active


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits."""

    #: max jobs a tenant may hold queued + running at once
    max_active: int = 64

    def __post_init__(self):
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")


class JobScheduler:
    """Priority queue + admission control for the worker pool.

    Single-event-loop discipline: every method is called from the
    service's loop (workers await :meth:`next_job` there too), so no
    lock is needed — asyncio's cooperative scheduling is the mutual
    exclusion.
    """

    def __init__(
        self,
        quota: TenantQuota | None = None,
        *,
        tracer=None,
        metrics=None,
    ):
        self.quota = quota or TenantQuota()
        self.tracer = tracer
        self.metrics = metrics
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        #: heap of (priority, share, deadline, seq, job)
        self._pending: list[tuple] = []
        self._cond = asyncio.Condition()
        self._closed = False
        #: spec hash -> in-flight leader (queued, running, or preempted)
        self._inflight: dict[str, Job] = {}
        #: jobs currently executing, by id
        self._running: dict[int, Job] = {}
        #: tenant -> active (queued + running + preempted) job count
        self._active: dict[str, int] = {}
        #: workers currently parked in next_job
        self._idle_workers = 0
        #: every job ever admitted, in submission order (the jobs API)
        self.jobs: list[Job] = []

    # -- bookkeeping helpers -------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _update_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("svc.queue.depth").set(len(self._pending))

    def _key(self, job: Job, share: int) -> tuple:
        deadline = job.deadline if job.deadline is not None else _NO_DEADLINE
        return (job.priority, share, deadline, next(self._seq))

    @staticmethod
    def _urgency(job: Job) -> tuple:
        deadline = job.deadline if job.deadline is not None else _NO_DEADLINE
        return (job.priority, deadline)

    # -- submission ----------------------------------------------------
    async def submit(
        self,
        spec: JobSpec,
        *,
        tenant: str = "default",
        priority: int = 1,
        deadline: float | None = None,
    ) -> Job:
        """Admit one request; returns its :class:`Job`.

        Raises :class:`~repro.service.jobs.SubmissionError` for a
        malformed spec and :class:`QuotaExceeded` when the tenant is
        over its active-job limit.  A duplicate of an in-flight spec
        coalesces (no quota charge, no queue slot).
        """
        if self._closed:
            raise ServiceError("scheduler is shut down")
        spec.validate()
        job = Job(
            spec,
            job_id=next(self._job_ids),
            tenant=tenant,
            priority=priority,
            deadline=deadline,
        )
        self._count("svc.jobs.submitted")

        leader = self._inflight.get(job.spec_hash)
        if leader is not None:
            # identical in-flight spec: share the leader's execution
            job.state = JobState.COALESCED
            job.leader = leader
            leader.future.add_done_callback(self._follower_callback(job))
            self.jobs.append(job)
            self._count("svc.jobs.coalesced")
            if self.tracer is not None:
                self.tracer.instant(
                    "job-coalesced",
                    category="service",
                    job=job.job_id,
                    leader=leader.job_id,
                    spec=job.spec_hash[:12],
                )
            return job

        active = self._active.get(tenant, 0)
        if active >= self.quota.max_active:
            self._count("svc.jobs.rejected")
            raise QuotaExceeded(tenant, self.quota.max_active, active)

        share = active  # the tenant's backlog index at enqueue time
        self._active[tenant] = active + 1
        self._inflight[job.spec_hash] = job
        self.jobs.append(job)
        job._enqueue_key = self._key(job, share)
        async with self._cond:
            heapq.heappush(self._pending, (*job._enqueue_key, job))
            self._cond.notify()
        self._update_depth()
        self._maybe_preempt()
        return job

    def _follower_callback(self, follower: Job):
        def _done(future: asyncio.Future) -> None:
            exc = future.exception()
            if exc is not None:
                follower.fail(exc)
            else:
                follower.finish(future.result())

        return _done

    # -- worker side ---------------------------------------------------
    async def next_job(self) -> Job | None:
        """The next grant, or None once the scheduler is closed."""
        async with self._cond:
            self._idle_workers += 1
            try:
                while not self._pending and not self._closed:
                    await self._cond.wait()
            finally:
                self._idle_workers -= 1
            if not self._pending:
                return None
            *_key, job = heapq.heappop(self._pending)
        self._update_depth()
        job.state = JobState.RUNNING
        job.preempt_requested = False
        self._running[job.job_id] = job
        return job

    def requeue(self, job: Job) -> None:
        """Return a preempted job to the queue under its original key
        (it resumes on the next grant of its priority class)."""
        self._running.pop(job.job_id, None)
        job.state = JobState.QUEUED
        job.preempt_requested = False
        job.preemptions += 1
        self._count("svc.jobs.preempted")
        if self.tracer is not None:
            self.tracer.instant(
                "job-preempted",
                category="service",
                job=job.job_id,
                step=job.steps_done,
                spec=job.spec_hash[:12],
            )

        def _push() -> None:
            heapq.heappush(self._pending, (*job._enqueue_key, job))
            self._update_depth()

        async def _notify() -> None:
            async with self._cond:
                _push()
                self._cond.notify()

        asyncio.get_running_loop().create_task(_notify())

    def task_done(self, job: Job) -> None:
        """Release the job's queue/quota accounting (terminal states)."""
        self._running.pop(job.job_id, None)
        if self._inflight.get(job.spec_hash) is job:
            del self._inflight[job.spec_hash]
        tenant = job.tenant
        remaining = self._active.get(tenant, 0) - 1
        if remaining > 0:
            self._active[tenant] = remaining
        else:
            self._active.pop(tenant, None)

    # -- preemption ----------------------------------------------------
    def _maybe_preempt(self) -> None:
        """Deadline-based preemption: ask the least-urgent running job
        to yield when a strictly more urgent job is stuck queued and
        no worker is idle to take it."""
        if self._idle_workers > 0 or not self._pending or not self._running:
            return
        best_pending = min(self._urgency(entry[-1]) for entry in self._pending)
        candidates = [
            job for job in self._running.values() if not job.preempt_requested
        ]
        if not candidates:
            return
        victim = max(candidates, key=self._urgency)
        if best_pending < self._urgency(victim):
            victim.request_preempt()

    def preempt(self, job: Job) -> bool:
        """Explicitly request preemption of a running job (the API's
        manual knob; also used by the deterministic tests)."""
        if job.job_id in self._running:
            job.request_preempt()
            return True
        return False

    # -- introspection / shutdown --------------------------------------
    @property
    def depth(self) -> int:
        return len(self._pending)

    @property
    def running(self) -> list[Job]:
        return list(self._running.values())

    async def close(self) -> None:
        """Stop granting; parked workers wake up with None."""
        self._closed = True
        async with self._cond:
            self._cond.notify_all()
