"""Job spec validation, canonicalisation, and lifecycle records."""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.service.jobs import (
    Job,
    JobResult,
    JobSpec,
    JobState,
    SubmissionError,
)


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        JobSpec().validate()

    def test_fault_plan_must_fit_the_world(self):
        with pytest.raises(SubmissionError, match=r"\[1\] outside a world of 1"):
            JobSpec(faults="kill:rank=1,step=1").validate()
        with pytest.raises(SubmissionError, match="unknown fault kind"):
            JobSpec(faults="warp:step=1").validate()
        JobSpec(faults="kill:rank=1,step=1", ranks=2).validate()
        JobSpec(faults="kill:step=1").validate()  # any rank

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario": "warp-drive"},
            {"n_per_side": 1},
            {"n_per_side": 65},
            {"n_steps": 0},
            {"ranks": 0},
            {"products": ()},
            {"products": ("diagnostics", "tarot_reading")},
            {"degrade_policy": "panic"},
        ],
    )
    def test_malformed_specs_raise_typed_error(self, kwargs):
        with pytest.raises(SubmissionError):
            JobSpec(**kwargs).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SubmissionError):
            JobSpec.from_dict({"n_per_side": 4, "gpu_count": 9})

    def test_from_dict_roundtrips_as_dict(self):
        spec = JobSpec(n_per_side=5, products=("trace", "diagnostics"))
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_products_canonical_order(self):
        spec = JobSpec(products=("trace", "halo_catalog", "diagnostics"))
        assert spec.products == ("diagnostics", "halo_catalog", "trace")

    def test_duplicate_products_collapse(self):
        spec = JobSpec(products=("diagnostics", "diagnostics"))
        assert spec.products == ("diagnostics",)


class TestContentHash:
    def test_equal_specs_share_a_hash(self):
        assert JobSpec(n_per_side=5).content_hash() == JobSpec(
            n_per_side=5
        ).content_hash()

    def test_every_field_is_load_bearing(self):
        changed = {
            "scenario": "other",
            "n_per_side": 7,
            "n_steps": 3,
            "seed": 1,
            "products": ("diagnostics", "trace"),
            "faults": "kill:rank=1,step=1",
            "ranks": 4,
            "degrade_policy": "shrink",
        }
        base = JobSpec()
        # a field added to JobSpec must be added here (and so be hashed)
        for field in dataclasses.fields(JobSpec):
            other = dataclasses.replace(base, **{field.name: changed[field.name]})
            assert other.content_hash() != base.content_hash(), field.name

    def test_short_hash_prefixes_full(self):
        spec = JobSpec()
        assert spec.content_hash().startswith(spec.short_hash())


class TestJobLifecycle:
    def test_finish_resolves_future_and_closes_stream(self):
        async def run():
            job = Job(JobSpec(), job_id=1)
            queue = job.subscribe()
            job.publish({"step": 0})
            result = JobResult(
                spec_hash=job.spec_hash, products={}, steps_completed=1
            )
            job.finish(result)
            assert job.state is JobState.COMPLETED
            assert await job.future is result
            assert queue.get_nowait() == {"step": 0}
            assert queue.get_nowait() is None  # end-of-stream sentinel

        asyncio.run(run())

    def test_fail_sets_typed_exception(self):
        async def run():
            job = Job(JobSpec(), job_id=2)
            job.fail(SubmissionError("boom"))
            assert job.state is JobState.FAILED
            with pytest.raises(SubmissionError):
                await job.future
            assert job.error == "boom"

        asyncio.run(run())

    def test_describe_is_json_compatible(self):
        async def run():
            import json

            job = Job(JobSpec(), job_id=3, tenant="acme", priority=2)
            json.dumps(job.describe())

        asyncio.run(run())


class TestJobResult:
    def test_as_dict_flattens_numpy(self):
        result = JobResult(
            spec_hash="x",
            products={"diagnostics": {"a": np.array([0.1, 0.2])}},
            steps_completed=2,
        )
        wire = result.as_dict()
        assert wire["products"]["diagnostics"]["a"] == [0.1, 0.2]
        import json

        json.dumps(wire)
