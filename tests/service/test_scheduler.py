"""Scheduler semantics: quotas, fair share, coalescing, preemption.

These tests drive :class:`JobScheduler` directly — playing the worker
pool by calling :meth:`next_job` / :meth:`task_done` by hand — so each
ordering claim is deterministic, with no real simulation in the loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.jobs import JobResult, JobSpec, JobState, SubmissionError
from repro.service.scheduler import JobScheduler, QuotaExceeded, TenantQuota


def run(coro):
    return asyncio.run(coro)


def _finish(scheduler, job, payload=None):
    job.finish(
        JobResult(spec_hash=job.spec_hash, products=payload or {}, steps_completed=0)
    )
    scheduler.task_done(job)


class TestQuota:
    def test_quota_exhaustion_raises_typed_error(self):
        async def main():
            sched = JobScheduler(TenantQuota(max_active=2))
            await sched.submit(JobSpec(seed=1))
            await sched.submit(JobSpec(seed=2))
            with pytest.raises(QuotaExceeded) as info:
                await sched.submit(JobSpec(seed=3))
            assert info.value.tenant == "default"
            assert info.value.limit == 2
            assert info.value.active == 2

        run(main())

    def test_quota_is_per_tenant(self):
        async def main():
            sched = JobScheduler(TenantQuota(max_active=1))
            await sched.submit(JobSpec(seed=1), tenant="a")
            await sched.submit(JobSpec(seed=2), tenant="b")  # own budget
            with pytest.raises(QuotaExceeded):
                await sched.submit(JobSpec(seed=3), tenant="a")

        run(main())

    def test_completion_releases_quota(self):
        async def main():
            sched = JobScheduler(TenantQuota(max_active=1))
            await sched.submit(JobSpec(seed=1))
            job = await sched.next_job()
            _finish(sched, job)
            await sched.submit(JobSpec(seed=2))  # does not raise

        run(main())

    def test_coalesced_duplicates_do_not_consume_quota(self):
        async def main():
            sched = JobScheduler(TenantQuota(max_active=1))
            spec = JobSpec(seed=1)
            await sched.submit(spec)
            for _ in range(5):  # all duplicates ride the leader
                await sched.submit(spec)

        run(main())

    def test_invalid_spec_rejected_before_quota_charge(self):
        async def main():
            sched = JobScheduler(TenantQuota(max_active=1))
            with pytest.raises(SubmissionError):
                await sched.submit(JobSpec(n_steps=0))
            await sched.submit(JobSpec(seed=1))  # budget untouched

        run(main())


class TestCoalescing:
    def test_duplicates_all_receive_the_shared_result(self):
        async def main():
            sched = JobScheduler()
            spec = JobSpec(seed=42)
            leader = await sched.submit(spec)
            followers = [await sched.submit(spec) for _ in range(3)]
            for f in followers:
                assert f.state is JobState.COALESCED
                assert f.leader is leader
            granted = await sched.next_job()
            assert granted is leader
            _finish(sched, granted, {"answer": 42})
            results = await asyncio.gather(
                leader.future, *(f.future for f in followers)
            )
            assert all(r.products == {"answer": 42} for r in results)
            assert sched.depth == 0  # followers never queued

        run(main())

    def test_leader_failure_propagates_to_followers(self):
        async def main():
            sched = JobScheduler()
            spec = JobSpec(seed=43)
            leader = await sched.submit(spec)
            follower = await sched.submit(spec)
            granted = await sched.next_job()
            granted.fail(RuntimeError("exploded"))
            sched.task_done(granted)
            with pytest.raises(RuntimeError):
                await follower.future

        run(main())

    def test_different_specs_do_not_coalesce(self):
        async def main():
            sched = JobScheduler()
            await sched.submit(JobSpec(seed=1))
            j2 = await sched.submit(JobSpec(seed=2))
            assert j2.state is JobState.QUEUED
            assert sched.depth == 2

        run(main())


class TestOrdering:
    def test_fair_share_interleaves_tenants(self):
        async def main():
            sched = JobScheduler()
            for i in range(4):
                await sched.submit(JobSpec(seed=i), tenant="burst")
            for i in range(2):
                await sched.submit(JobSpec(seed=100 + i), tenant="late")
            order = []
            for _ in range(6):
                job = await sched.next_job()
                order.append(job.tenant)
                _finish(sched, job)
            # the late tenant's pair does not wait behind the burst
            assert order == ["burst", "late", "burst", "late", "burst", "burst"]

        run(main())

    def test_priority_class_beats_share(self):
        async def main():
            sched = JobScheduler()
            await sched.submit(JobSpec(seed=1), priority=5)
            urgent = await sched.submit(JobSpec(seed=2), priority=0)
            assert (await sched.next_job()) is urgent

        run(main())

    def test_earlier_deadline_wins_within_a_class(self):
        async def main():
            sched = JobScheduler()
            relaxed = await sched.submit(JobSpec(seed=1), tenant="a", deadline=100.0)
            tight = await sched.submit(JobSpec(seed=2), tenant="b", deadline=5.0)
            assert (await sched.next_job()) is tight
            assert (await sched.next_job()) is relaxed

        run(main())


class TestPreemption:
    def test_urgent_arrival_requests_preemption(self):
        async def main():
            sched = JobScheduler()
            await sched.submit(JobSpec(seed=1), priority=5)
            victim = await sched.next_job()  # the only worker is now busy
            assert not victim.preempt_requested
            await sched.submit(JobSpec(seed=2), priority=0)
            assert victim.preempt_requested

        run(main())

    def test_equal_urgency_does_not_preempt(self):
        async def main():
            sched = JobScheduler()
            await sched.submit(JobSpec(seed=1), priority=1)
            victim = await sched.next_job()
            await sched.submit(JobSpec(seed=2), priority=1)
            assert not victim.preempt_requested

        run(main())

    def test_idle_worker_suppresses_preemption(self):
        async def main():
            sched = JobScheduler()
            await sched.submit(JobSpec(seed=1), priority=5)
            victim = await sched.next_job()
            waiter = asyncio.create_task(sched.next_job())
            await asyncio.sleep(0)  # park the second worker
            urgent = await sched.submit(JobSpec(seed=2), priority=0)
            granted = await waiter
            assert granted is urgent  # the idle worker takes it instead
            assert not victim.preempt_requested

        run(main())

    def test_faulted_jobs_are_preemptible(self):
        # every job runs under the resilience runner, which stops all
        # ranks at one step and checkpoints it
        async def main():
            sched = JobScheduler()
            await sched.submit(
                JobSpec(seed=1, faults="kill:rank=1,step=1", ranks=4), priority=5
            )
            victim = await sched.next_job()
            await sched.submit(JobSpec(seed=2), priority=0)
            assert victim.preempt_requested

        run(main())

    def test_requeued_job_keeps_original_ordering_key(self):
        async def main():
            sched = JobScheduler()
            first = await sched.submit(JobSpec(seed=1), priority=1)
            job = await sched.next_job()
            assert job is first
            sched.requeue(job)
            await asyncio.sleep(0)  # let the requeue task push
            await sched.submit(JobSpec(seed=2), priority=1)
            assert (await sched.next_job()) is first  # still ahead (FIFO seq)
            assert first.preemptions == 1
            assert first.state is JobState.RUNNING

        run(main())


class TestShutdown:
    def test_close_wakes_parked_workers_with_none(self):
        async def main():
            sched = JobScheduler()
            waiter = asyncio.create_task(sched.next_job())
            await asyncio.sleep(0)
            await sched.close()
            assert await waiter is None
            with pytest.raises(Exception):
                await sched.submit(JobSpec(seed=1))

        run(main())
