"""Tests for the device executor (the virtual runtime)."""

import pytest

from repro.machine.cost_model import InstructionProfile, KernelLaunch
from repro.machine.executor import DeviceExecutor
from repro.machine.registry import FRONTIER


@pytest.fixture
def executor():
    return DeviceExecutor(FRONTIER)


def submit(executor, name="k", fma=100.0, n=1 << 16, body=None):
    profile = InstructionProfile(fma=fma, registers_needed=32)
    launch = KernelLaunch(n_workitems=n, subgroup_size=64)
    return executor.submit(name, profile, launch, body)


class TestSubmission:
    def test_body_result_returned(self, executor):
        assert submit(executor, body=lambda: 42) == 42

    def test_no_body_returns_none(self, executor):
        assert submit(executor) is None

    def test_record_appended_per_submission(self, executor):
        submit(executor, "a")
        submit(executor, "b")
        assert [r.kernel_name for r in executor.records] == ["a", "b"]


class TestLedger:
    def test_total_is_sum_of_records(self, executor):
        submit(executor, "a")
        submit(executor, "b", fma=200.0)
        assert executor.total_seconds() == pytest.approx(
            sum(r.seconds for r in executor.records)
        )

    def test_seconds_aggregate_by_name(self, executor):
        submit(executor, "a")
        submit(executor, "a")
        submit(executor, "b")
        by = executor.seconds_by_kernel()
        assert set(by) == {"a", "b"}
        assert by["a"] == pytest.approx(2 * by["b"])

    def test_calls_by_kernel(self, executor):
        submit(executor, "a")
        submit(executor, "a")
        assert executor.calls_by_kernel() == {"a": 2}
