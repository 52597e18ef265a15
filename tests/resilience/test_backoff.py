"""Tests for the unified retry backoff (``repro.resilience.backoff``)."""

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.resilience import BackoffPolicy, RetryPolicy
from repro.resilience.backoff import BACKOFF_JITTER


def delays(policy: BackoffPolicy, n: int) -> list[float]:
    return [policy.delay_for(k) for k in range(n)]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        """Acceptance: backoff delays are a pure function of the seed."""
        assert delays(BackoffPolicy(seed=42), 8) == delays(BackoffPolicy(seed=42), 8)

    def test_different_seeds_differ(self):
        assert delays(BackoffPolicy(seed=1), 6) != delays(BackoffPolicy(seed=2), 6)

    def test_attempts_are_independent_draws(self):
        # jitter for attempt k must not depend on earlier attempts
        policy = BackoffPolicy(seed=7)
        assert policy.delay_for(5) == BackoffPolicy(seed=7).delay_for(5)


class TestShape:
    def test_exponential_growth_until_cap(self):
        """The un-jittered envelope doubles per attempt up to the cap."""
        policy = BackoffPolicy(base_delay=0.1, max_delay=0.8, seed=0)
        for delay, envelope in zip(delays(policy, 5), [0.1, 0.2, 0.4, 0.8, 0.8]):
            assert envelope <= delay < envelope * (1.0 + BACKOFF_JITTER)

    def test_jitter_bounded(self):
        policy = BackoffPolicy(base_delay=1.0, max_delay=1.0, seed=3)
        for attempt in range(20):
            delay = policy.delay_for(attempt)
            assert 1.0 <= delay <= 1.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy().delay_for(-1)


class TestSleep:
    def test_sleep_uses_injected_sleeper_and_counts_metric(self):
        slept = []
        metrics = MetricsRegistry()
        policy = BackoffPolicy(base_delay=0.25, seed=0)
        policy.sleep(0, sleeper=slept.append, metrics=metrics)
        policy.sleep(1, sleeper=slept.append, metrics=metrics)
        assert slept == delays(policy, 2)
        counter = metrics.counter("sim.resilience.backoff_seconds")
        assert counter.value == pytest.approx(sum(slept))

    def test_zero_delay_skips_sleeper(self):
        slept = []
        policy = BackoffPolicy(base_delay=0.0, max_delay=0.0)
        policy.sleep(0, sleeper=slept.append)
        assert slept == []


class TestRetryPolicyIntegration:
    def test_retry_policy_carries_a_backoff(self):
        policy = RetryPolicy(max_retries=2)
        assert isinstance(policy.backoff, BackoffPolicy)

    def test_custom_backoff_threads_through(self):
        backoff = BackoffPolicy(base_delay=0.01, seed=9)
        policy = RetryPolicy(max_retries=1, backoff=backoff)
        assert delays(policy.backoff, 3) == delays(backoff, 3)

    def test_runner_default_sleeps_are_pinned(self):
        """The runner's default inter-attempt delays, bit for bit (a
        two-restart run such as the ``resilient_ranks`` benchmark sleeps
        the first two)."""
        assert delays(RetryPolicy().backoff, 3) == [
            0.057962021091518184,
            0.12224346978195336,
            0.20404120195865938,
        ]
