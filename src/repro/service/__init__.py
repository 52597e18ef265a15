"""``repro.service`` — simulation-as-a-service.

The ROADMAP's production-traffic story: accept thousands of concurrent
simulation/analysis requests (cosmology params -> power spectrum, halo
catalog, workload trace) and turn them into supervised, cacheable,
observable jobs.

The pieces and the request lifecycle::

    submit ──> scheduler (quota / fair-share / coalesce)
                  │ grant                        ▲ requeue
                  ▼                              │ (preempt = checkpoint)
               worker ──(resilience runner)──> products
                  │                              │
                  ▼ stream                       ▼
              subscribers                  content-addressed cache

- :mod:`~repro.service.jobs` — the job spec (scenario + cosmology
  params + requested products) with a canonical,
  deterministic content hash; the job record and its lifecycle states.
- :mod:`~repro.service.scheduler` — an asyncio priority queue with
  per-tenant quotas, fair-share ordering, deadline-based preemption
  (preempt = checkpoint via
  :class:`~repro.resilience.restart.CheckpointManager`, requeue,
  resume on the next grant), and request coalescing so identical
  in-flight specs share one execution.
- :mod:`~repro.service.cache` — content-addressed store for ICs,
  linear-theory tables, and result products keyed on the spec hash,
  with size-bounded LRU eviction and hit/miss metrics.
- :mod:`~repro.service.workers` — the worker pool: each job runs
  under the resilience runner (faults degrade per the degradation ladder
  instead of failing the request) and streams in-situ snapshot events
  to subscribers.
- :mod:`~repro.service.api` — the local front end (unix-socket JSONL
  framing or in-process) behind CLI ``repro serve`` / ``repro
  submit`` / ``repro jobs``.

`MetricsRegistry`/`TraceRecorder` are wired through the whole path
(``svc.queue.depth``, ``svc.cache.hits``, per-job flame spans), so the
run dashboard doubles as the service console — ``repro dashboard
--follow`` tails a live ``repro serve`` session's event log.
"""

from repro.service.api import ServiceAPI, request, submit_job
from repro.service.cache import CacheStats, ContentCache
from repro.service.jobs import (
    Job,
    JobResult,
    JobSpec,
    JobState,
    ServiceError,
    SubmissionError,
)
from repro.service.scheduler import JobScheduler, QuotaExceeded, TenantQuota
from repro.service.workers import ServiceConfig, SimulationService

__all__ = [
    "CacheStats",
    "ContentCache",
    "Job",
    "JobResult",
    "JobScheduler",
    "JobSpec",
    "JobState",
    "QuotaExceeded",
    "ServiceAPI",
    "ServiceConfig",
    "ServiceError",
    "SimulationService",
    "SubmissionError",
    "TenantQuota",
    "request",
    "submit_job",
]
