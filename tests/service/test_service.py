"""End-to-end service tests: the whole submit → schedule → execute →
cache path, against the real simulation driver.

The specs here are tiny (6 per side, the smallest box whose SPH support
fits the minimum image; 1-3 steps) so the suite stays fast, but nothing
is mocked: every job runs under the real resilience runner, and
preemption writes a real checkpoint.  Where a test must catch a job
between two steps, :func:`gate_step` holds its ranks there.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.hacc import eos
from repro.hacc.timestep import AdiabaticDriver
from repro.resilience import SimulationAborted
from repro.service import (
    JobSpec,
    JobState,
    QuotaExceeded,
    ServiceConfig,
    SimulationService,
    SubmissionError,
    TenantQuota,
)

#: tiny but real: 2x6^3 particles, one step
TINY = JobSpec(n_per_side=6, n_steps=1)


def run(coro):
    return asyncio.run(coro)


def gate_step(monkeypatch, step_index: int) -> threading.Event:
    """Hold every rank about to take step ``step_index`` until the
    returned event is set."""
    gate = threading.Event()
    advance = AdiabaticDriver.advance

    def gated(driver):
        if driver.step_index == step_index:
            assert gate.wait(timeout=60), "the gate was never opened"
        return advance(driver)

    monkeypatch.setattr(AdiabaticDriver, "advance", gated)
    return gate


async def _with_service(body, config=None):
    service = SimulationService(config or ServiceConfig(workers=2))
    await service.start()
    try:
        return await body(service)
    finally:
        await service.shutdown()


class TestConcurrentSubmissions:
    def test_duplicates_complete_once_and_share_products(self, tmp_path):
        async def body(service):
            distinct = [
                JobSpec(n_per_side=6, n_steps=1, seed=seed) for seed in (1, 2)
            ]
            # 6 submissions over 2 distinct specs: 2 executions max
            jobs = []
            for spec in distinct * 3:
                jobs.append(await service.submit(spec))
            results = await asyncio.gather(*(j.future for j in jobs))
            for job, result in zip(jobs, results):
                assert job.state is JobState.COMPLETED
                assert result.steps_completed == 1
                assert "diagnostics" in result.products
            # every duplicate either coalesced in flight or hit the cache
            counters = service.metrics.snapshot()["counters"]
            executed = counters["svc.jobs.submitted"] - (
                counters.get("svc.jobs.coalesced", 0)
                + counters.get("svc.cache.hits", 0)
            )
            assert executed <= len(distinct)
            # duplicates of one spec see identical numbers
            a = [r for j, r in zip(jobs, results) if j.spec.seed == 1]
            for other in a[1:]:
                np.testing.assert_array_equal(
                    a[0].products["diagnostics"]["kinetic_energy"],
                    other.products["diagnostics"]["kinetic_energy"],
                )

        run(
            _with_service(
                body,
                ServiceConfig(workers=2, checkpoint_dir=str(tmp_path)),
            )
        )

    def test_completed_spec_resubmission_is_a_cache_hit(self):
        async def body(service):
            first = await (await service.submit(TINY)).future
            assert not first.from_cache
            again = await (await service.submit(TINY)).future
            assert again.from_cache
            assert service.cache.stats().hits >= 1
            np.testing.assert_array_equal(
                first.products["diagnostics"]["kinetic_energy"],
                again.products["diagnostics"]["kinetic_energy"],
            )

        run(_with_service(body))

    def test_all_products_compute(self):
        async def body(service):
            spec = JobSpec(
                n_per_side=6,
                n_steps=1,
                products=("diagnostics", "power_spectrum", "halo_catalog", "trace"),
            )
            result = await (await service.submit(spec)).future
            assert set(result.products) == {
                "diagnostics",
                "power_spectrum",
                "halo_catalog",
                "trace",
            }
            assert len(result.products["power_spectrum"]["k"]) > 0
            assert result.products["trace"]["launches"] > 0
            assert result.products["halo_catalog"]["n_halos"] >= 0

        run(_with_service(body))

    def test_subscribers_stream_per_step_events(self):
        async def body(service):
            job = await service.submit(JobSpec(n_per_side=6, n_steps=2, seed=9))
            queue = job.subscribe()
            await job.future
            events = []
            while True:
                event = queue.get_nowait()
                if event is None:
                    break
                events.append(event)
            assert [e["step"] for e in events] == [0, 1]
            assert all("kinetic_energy" in e for e in events)

        run(_with_service(body))

    def test_steps_stream_once_each_while_the_job_runs(self, monkeypatch):
        gate = gate_step(monkeypatch, 1)

        async def body(service):
            job = await service.submit(JobSpec(n_per_side=6, n_steps=3, ranks=2))
            queue = job.subscribe()
            try:
                first = await asyncio.wait_for(queue.get(), timeout=20)
                running = not job.future.done()
            finally:
                gate.set()
            assert first["step"] == 0 and running
            events = [first]
            while (event := await queue.get()) is not None:
                events.append(event)
            assert [e["step"] for e in events] == [0, 1, 2]

        run(_with_service(body))


class TestPreemption:
    def test_preempted_job_resumes_bit_identically(self, tmp_path):
        spec = JobSpec(n_per_side=6, n_steps=3, seed=5)

        async def preempted(service):
            job = await service.submit(spec)
            # wait until the worker is actually stepping, then preempt
            for _ in range(2000):
                if job.state is JobState.RUNNING and service.scheduler.preempt(job):
                    break
                await asyncio.sleep(0.005)
            else:  # pragma: no cover
                pytest.fail("job never became preemptible")
            result = await job.future
            assert job.preemptions >= 1
            assert job.checkpoint_path is not None
            counters = service.metrics.snapshot()["counters"]
            assert counters["svc.jobs.preempted"] >= 1
            assert counters["svc.jobs.resumed"] >= 1
            # the preemption checkpoint goes through the same manager,
            # and the same books, as the resilience runner's
            assert counters["checkpoint.writes"] >= 1
            assert counters["checkpoint.bytes"] > 0
            return result

        async def clean(service):
            return await (await service.submit(spec)).future

        bumpy = run(
            _with_service(
                preempted,
                ServiceConfig(workers=1, checkpoint_dir=str(tmp_path / "a")),
            )
        )
        smooth = run(
            _with_service(
                clean, ServiceConfig(workers=1, checkpoint_dir=str(tmp_path / "b"))
            )
        )
        assert bumpy.steps_completed == smooth.steps_completed == 3
        for fld in ("kinetic_energy", "thermal_energy", "max_density_contrast"):
            np.testing.assert_array_equal(
                bumpy.products["diagnostics"][fld],
                smooth.products["diagnostics"][fld],
            )

    @pytest.mark.faults
    def test_faulted_job_is_preempted_and_resumes_exactly(
        self, tmp_path, monkeypatch
    ):
        spec = JobSpec(
            n_per_side=6, n_steps=4, seed=5, faults="kill:rank=1,step=1", ranks=2
        )
        gate = gate_step(monkeypatch, 2)

        async def preempted(service):
            job = await service.submit(spec)
            try:
                # steps 0 and 1 agreed (step 1 after the kill's restart)
                for _ in range(2000):
                    if job.steps_done == 2:
                        break
                    await asyncio.sleep(0.005)
                asked = service.scheduler.preempt(job)
            finally:
                gate.set()
            assert asked
            result = await job.future
            assert job.preemptions == 1
            assert service.metrics.snapshot()["counters"]["svc.jobs.resumed"] == 1
            return result

        async def clean(service):
            return await (await service.submit(dataclasses.replace(spec, faults=""))).future

        bumpy = run(
            _with_service(
                preempted, ServiceConfig(workers=1, checkpoint_dir=str(tmp_path / "a"))
            )
        )
        smooth = run(
            _with_service(
                clean, ServiceConfig(workers=1, checkpoint_dir=str(tmp_path / "b"))
            )
        )
        # the kill's failed attempt, the preempted one, the resumed one
        assert bumpy.attempts == 3 and bumpy.degraded
        assert smooth.attempts == 1 and not smooth.degraded
        for fld, values in smooth.products["diagnostics"].items():
            np.testing.assert_array_equal(bumpy.products["diagnostics"][fld], values)


class TestCheckpointDirectory:
    def test_shutdown_removes_only_the_directory_it_made(self, tmp_path):
        async def body(service):
            return service._checkpoint_root

        made = run(_with_service(body))
        assert made.name.startswith("repro-service-ckpt-")
        assert not made.exists()

        configured = tmp_path / "kept"
        configured.mkdir()
        (configured / "sim-step0001.npz").write_bytes(b"not the service's")
        got = run(
            _with_service(
                body, ServiceConfig(workers=1, checkpoint_dir=str(configured))
            )
        )
        assert got == configured
        assert (configured / "sim-step0001.npz").exists()

    def test_a_fault_free_job_checkpoints_once(self):
        """A job checkpoints after its final step only: a fault-free
        3-step job is one write, not one per step."""

        async def body(service):
            counters = service.metrics.snapshot()["counters"]
            before = counters.get("checkpoint.writes", 0)
            result = await (await service.submit(JobSpec(n_per_side=6, n_steps=3))).future
            assert result.steps_completed == 3 and result.attempts == 1
            return service.metrics.snapshot()["counters"]["checkpoint.writes"] - before

        assert run(_with_service(body)) == 1

    @pytest.mark.faults
    def test_finished_jobs_leave_no_checkpoint_directory(self, tmp_path):
        async def body(service):
            done = await service.submit(JobSpec(n_per_side=6, n_steps=2, ranks=2))
            lost = await service.submit(
                JobSpec(
                    n_per_side=6,
                    n_steps=2,
                    ranks=2,
                    faults="kill:rank=1,step=1",
                    degrade_policy="abort",
                )
            )
            await done.future
            with pytest.raises(SimulationAborted):
                await lost.future

        run(_with_service(body, ServiceConfig(workers=1, checkpoint_dir=str(tmp_path))))
        assert list(tmp_path.iterdir()) == []


@pytest.mark.faults
class TestFaultedJobs:
    def test_injected_fault_degrades_without_failing_the_request(self):
        async def body(service):
            spec = JobSpec(
                n_per_side=6,
                n_steps=2,
                faults="kill:rank=1,step=1",
                ranks=4,
                degrade_policy="restart",
            )
            result = await (await service.submit(spec)).future
            assert result.steps_completed == 2
            assert result.attempts >= 2  # the kill cost one attempt
            assert result.degraded
            counters = service.metrics.snapshot()["counters"]
            assert counters.get("svc.jobs.failed", 0) == 0

        run(_with_service(body))

    def test_leaking_job_is_rolled_back_to_the_fault_free_result(self):
        """A slow energy leak in a supervised job is judged in flight:
        the job rolls back, reports degraded, and its diagnostics are
        the fault-free job's, bit for bit."""

        async def body(service):
            leaky = JobSpec(
                n_per_side=6, n_steps=8, faults="leak:step=3,rate=0.12,count=3"
            )
            clean = JobSpec(n_per_side=6, n_steps=8)
            return await asyncio.gather(
                (await service.submit(leaky)).future,
                (await service.submit(clean)).future,
            )

        leaked, clean = run(_with_service(body))
        assert leaked.degraded
        assert leaked.attempts == 2
        for fld, values in clean.products["diagnostics"].items():
            np.testing.assert_array_equal(leaked.products["diagnostics"][fld], values)

    def test_a_step_that_leaks_once_is_rolled_back(self, monkeypatch):
        """No fault plan: every job is judged in flight, so a step that
        bleeds gas energy once is caught, rolled back and replayed."""
        spec = JobSpec(n_per_side=6, n_steps=8)
        leaked = []
        advance = AdiabaticDriver.advance

        def leaky(driver):
            if driver.step_index == 3 and not leaked:
                leaked.append(driver.step_index)
                driver.particles.u[:] *= 0.88
                eos.update_thermodynamics(driver.particles)
            return advance(driver)

        monkeypatch.setattr(AdiabaticDriver, "advance", leaky)

        async def body(service):
            return await (await service.submit(spec)).future

        result = run(_with_service(body))
        assert leaked == [3]
        assert result.attempts == 2 and result.degraded
        reference = AdiabaticDriver(SimulationService._sim_config(spec))
        reference.run()
        for fld, values in result.products["diagnostics"].items():
            np.testing.assert_array_equal(
                values, [getattr(d, fld) for d in reference.diagnostics]
            )

    def test_supervised_job_streams_numbered_steps(self):
        # the same per-step event as a plain job's: `submit --stream`
        # printed "step ?" for these
        async def body(service):
            job = await service.submit(JobSpec(n_per_side=6, n_steps=2, ranks=2))
            queue = job.subscribe()
            await job.future
            events = []
            while (event := queue.get_nowait()) is not None:
                events.append(event)
            assert [e["step"] for e in events] == [0, 1]
            assert all(e["job"] == job.job_id for e in events)

        run(_with_service(body))


class TestAdmission:
    def test_quota_rejection_is_typed(self):
        async def body(service):
            await service.submit(JobSpec(n_per_side=6, n_steps=2, seed=1))
            with pytest.raises(QuotaExceeded):
                await service.submit(JobSpec(n_per_side=6, n_steps=2, seed=2))

        run(
            _with_service(
                body, ServiceConfig(workers=1, quota=TenantQuota(max_active=1))
            )
        )

    def test_backend_field_rejected_at_submit(self):
        # a typed rejection, not a TypeError from the dataclass
        async def body(service):
            with pytest.raises(
                SubmissionError, match=r"unknown spec field\(s\): \['backend'\]"
            ):
                await service.submit({"n_per_side": 6, "backend": "numpy"})

        run(_with_service(body))

    def test_malformed_wire_spec_rejected(self):
        async def body(service):
            with pytest.raises(SubmissionError):
                await service.submit({"n_per_side": 6, "warp": 9})

        run(_with_service(body))


class TestEventLog:
    def test_live_event_log_is_schema_valid(self, tmp_path):
        import sys

        sys.path.insert(0, "tools")
        try:
            import check_trace
        finally:
            sys.path.pop(0)

        path = tmp_path / "events.jsonl"

        async def body(service):
            await (await service.submit(TINY)).future
            await (await service.submit(TINY)).future  # a cache hit event

        run(
            _with_service(
                body, ServiceConfig(workers=1, events_out=str(path))
            )
        )
        assert path.exists()
        assert check_trace.validate_file(path) == []
        kinds = [
            __import__("json").loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds[0] == "header"
        assert kinds[-1] == "metrics"
        names = path.read_text()
        assert "job-submitted" in names
        assert "job-cache-hit" in names

    def test_timestamps_are_seconds_on_the_service_clock(self, tmp_path):
        import json
        import time

        path = tmp_path / "events.jsonl"

        async def body(service):
            await (await service.submit(TINY)).future

        started = time.perf_counter()
        run(_with_service(body, ServiceConfig(workers=1, events_out=str(path))))
        wall = time.perf_counter() - started
        stamps = [
            record["ts"]
            for record in map(json.loads, path.read_text().splitlines())
            if "ts" in record
        ]
        assert len(stamps) >= 4  # submitted, queue depth, completed, shutdown, ...
        assert all(0.0 <= ts <= wall for ts in stamps), (stamps, wall)
