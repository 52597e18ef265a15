"""Job specs, job records, and their lifecycle.

A :class:`JobSpec` is the *content* of a request: which scenario to
run, at what resolution and seed, and which products to return.  Two
requests with equal specs are the same computation —
:meth:`JobSpec.content_hash` (the shared
:func:`~repro.hacc.confighash.config_hash` canonicalisation) is the
key under which the scheduler coalesces duplicate in-flight requests
and the cache stores finished products.

A :class:`Job` is one *request* for that content: it carries the
tenant, priority class, deadline, lifecycle state, the asyncio future
its submitter awaits, and the subscriber queues its in-situ snapshot
events stream to.  Many jobs (coalesced duplicates) can point at one
execution.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.hacc.confighash import config_hash
from repro.resilience.degrade import DEGRADE_POLICIES
from repro.resilience.faults import FaultPlan

#: products a job may request, in canonical order
PRODUCT_NAMES = ("diagnostics", "power_spectrum", "halo_catalog", "trace")


class ServiceError(RuntimeError):
    """Base class of every service-layer failure."""


class SubmissionError(ServiceError):
    """The request itself is malformed (unknown product, bad spec)."""


class JobState(str, Enum):
    """Lifecycle of a job.

    ``QUEUED -> RUNNING -> COMPLETED`` is the happy path; a preempted
    job bounces ``RUNNING -> PREEMPTED -> QUEUED`` (resuming from its
    checkpoint on the next grant); a coalesced duplicate goes straight
    to ``COALESCED`` and completes when its leader does.
    """

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COALESCED = "coalesced"
    COMPLETED = "completed"
    FAILED = "failed"

    def __str__(self) -> str:  # argparse/log friendliness
        return self.value


@dataclass(frozen=True)
class JobSpec:
    """What to simulate and what to hand back.

    Only fields that change the *computation* belong here — tenant,
    priority, and deadline live on the :class:`Job` so that two
    tenants asking for the same run still share one execution.
    """

    #: scenario name (the adiabatic box is the only one registered today)
    scenario: str = "adiabatic"
    #: particles per side (2x n^3 total, the paper's two-species load)
    n_per_side: int = 6
    #: steps of the z_initial -> z_final schedule
    n_steps: int = 2
    #: IC realisation seed
    seed: int = 2023
    #: products to compute and return, canonical order
    products: tuple[str, ...] = ("diagnostics",)
    #: optional fault plan (``repro.resilience.faults`` syntax),
    #: injected into the job's run
    faults: str = ""
    #: simulated ranks the resilience runner replicates the job on
    ranks: int = 1
    #: degradation ladder when a rank dies or a step fails its judge
    degrade_policy: str = "restart"

    def __post_init__(self):
        object.__setattr__(
            self,
            "products",
            tuple(sorted(set(self.products), key=PRODUCT_NAMES.index))
            if all(p in PRODUCT_NAMES for p in self.products)
            else tuple(self.products),
        )

    def validate(self) -> None:
        """Raise :class:`SubmissionError` on a malformed spec."""
        if self.scenario != "adiabatic":
            raise SubmissionError(f"unknown scenario {self.scenario!r}")
        if not 2 <= self.n_per_side <= 64:
            raise SubmissionError(
                f"n_per_side must be in [2, 64], got {self.n_per_side}"
            )
        if not 1 <= self.n_steps <= 64:
            raise SubmissionError(f"n_steps must be in [1, 64], got {self.n_steps}")
        if self.ranks < 1:
            raise SubmissionError(f"ranks must be >= 1, got {self.ranks}")
        if not self.products:
            raise SubmissionError("a job must request at least one product")
        unknown = [p for p in self.products if p not in PRODUCT_NAMES]
        if unknown:
            raise SubmissionError(
                f"unknown product(s) {unknown} (known: {list(PRODUCT_NAMES)})"
            )
        if self.degrade_policy not in DEGRADE_POLICIES:
            raise SubmissionError(
                f"unknown degrade policy {self.degrade_policy!r}"
            )
        if self.faults:
            try:
                FaultPlan.parse(self.faults, seed=self.seed).check_ranks(self.ranks)
            except ValueError as exc:
                raise SubmissionError(f"invalid fault plan: {exc}") from exc

    def content_hash(self) -> str:
        """The canonical content key of this computation."""
        return config_hash(self)

    def short_hash(self) -> str:
        return self.content_hash()[:12]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Build a spec from a wire-format dict (unknown keys rejected)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SubmissionError(f"unknown spec field(s): {sorted(unknown)}")
        if "products" in data:
            data = dict(data, products=tuple(data["products"]))
        try:
            return cls(**data)
        except TypeError as exc:
            raise SubmissionError(f"malformed spec: {exc}") from exc

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "n_per_side": self.n_per_side,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "products": list(self.products),
            "faults": self.faults,
            "ranks": self.ranks,
            "degrade_policy": self.degrade_policy,
        }


@dataclass
class JobResult:
    """Finished products of one executed spec.

    ``products`` values keep their NumPy arrays in process (the
    bit-identity tests compare them exactly); :meth:`as_dict` converts
    to JSON-compatible types for the wire.
    """

    spec_hash: str
    products: dict[str, Any]
    steps_completed: int
    #: did the resilience runner degrade/recover during execution?
    attempts: int = 1
    degraded: bool = False
    from_cache: bool = False

    def as_dict(self) -> dict[str, Any]:
        def _plain(value: Any) -> Any:
            if hasattr(value, "tolist"):
                return value.tolist()
            if isinstance(value, dict):
                return {k: _plain(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [_plain(v) for v in value]
            return value

        return {
            "spec_hash": self.spec_hash,
            "products": _plain(self.products),
            "steps_completed": self.steps_completed,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "from_cache": self.from_cache,
        }


class Job:
    """One request's lifecycle, future, and event stream."""

    def __init__(
        self,
        spec: JobSpec,
        *,
        job_id: int,
        tenant: str = "default",
        priority: int = 1,
        deadline: float | None = None,
    ):
        self.spec = spec
        self.spec_hash = spec.content_hash()
        self.job_id = job_id
        self.tenant = tenant
        self.priority = int(priority)
        #: absolute event-loop time by which the submitter wants the
        #: result; earlier deadlines sort (and preempt) ahead
        self.deadline = deadline
        self.state = JobState.QUEUED
        self.error: str | None = None
        #: steps completed so far (advanced by the worker; survives
        #: preemption via the checkpoint)
        self.steps_done = 0
        #: how many times this job was preempted and resumed
        self.preemptions = 0
        #: checkpoint file of the preempted state, if any
        self.checkpoint_path = None
        #: the resilience runner's attempt records, over every grant
        self.attempt_log: list = []
        #: the leader job this (coalesced) job rides on, if any
        self.leader: "Job | None" = None
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._subscribers: list[asyncio.Queue] = []
        #: cooperative preemption flag, checked between steps by the
        #: worker thread (set from the event loop)
        self.preempt_requested = False

    # -- events --------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        """A queue receiving this job's in-situ snapshot events; a
        ``None`` sentinel marks the end of the stream."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def publish(self, event: dict[str, Any]) -> None:
        for queue in self._subscribers:
            queue.put_nowait(event)

    def close_stream(self) -> None:
        for queue in self._subscribers:
            queue.put_nowait(None)

    # -- lifecycle -----------------------------------------------------
    def request_preempt(self) -> None:
        self.preempt_requested = True

    def finish(self, result: JobResult) -> None:
        self.state = JobState.COMPLETED
        if not self.future.done():
            self.future.set_result(result)
        self.close_stream()

    def fail(self, error: Exception | str) -> None:
        self.state = JobState.FAILED
        self.error = str(error)
        if not self.future.done():
            exc = error if isinstance(error, Exception) else ServiceError(error)
            self.future.set_exception(exc)
        self.close_stream()

    def describe(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": str(self.state),
            "steps_done": self.steps_done,
            "preemptions": self.preemptions,
            "error": self.error,
            "coalesced_into": self.leader.job_id if self.leader else None,
        }

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, {self.spec_hash[:8]}, "
            f"tenant={self.tenant!r}, state={self.state})"
        )
