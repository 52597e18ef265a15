"""Unified retry backoff: exponential with seeded jitter.

Every transient-failure retry in the resilience stack — runner restart
attempts, checkpoint I/O re-issues, post-shrink stabilisation pauses —
shares one :class:`BackoffPolicy` instead of ad-hoc per-site cadences.
The schedule is exponential with *deterministic* jitter: the jitter for
attempt ``k`` is drawn from ``np.random.default_rng([seed, k])``, so a
fixed seed reproduces the exact delay sequence (the property the chaos
soak and the regression tests assert), while distinct seeds decorrelate
retry storms the way randomised jitter is meant to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


#: exponential growth of the un-jittered delay per attempt
BACKOFF_FACTOR = 2.0
#: jitter fraction: a delay is stretched by up to this much
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic seeded jitter.

    ``delay_for(k)`` for attempt ``k`` (0-based) is::

        min(base_delay * BACKOFF_FACTOR**k, max_delay) * (1 + BACKOFF_JITTER * u_k)

    where ``u_k`` is uniform in ``[0, 1)`` drawn from a generator
    seeded by ``(seed, k)`` — the same attempt under the same seed
    always gets the same delay.
    """

    #: delay before the first retry, seconds
    base_delay: float = 0.05
    #: ceiling on the un-jittered delay, seconds
    max_delay: float = 5.0
    #: jitter seed; a fixed seed makes the whole schedule deterministic
    seed: int = 0

    def __post_init__(self):
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")

    def delay_for(self, attempt: int) -> float:
        """Delay (seconds) before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        delay = min(self.base_delay * BACKOFF_FACTOR**attempt, self.max_delay)
        u = float(np.random.default_rng([self.seed, attempt]).random())
        return delay * (1.0 + BACKOFF_JITTER * u)

    def sleep(
        self,
        attempt: int,
        *,
        sleeper: Callable[[float], None] = time.sleep,
        metrics=None,
    ) -> float:
        """Sleep the delay for ``attempt``; returns the seconds slept.

        ``metrics`` (a
        :class:`~repro.observability.metrics.MetricsRegistry`) gets the
        slept time added to ``sim.resilience.backoff_seconds``.
        """
        delay = self.delay_for(attempt)
        if delay > 0:
            sleeper(delay)
        if metrics is not None:
            metrics.counter("sim.resilience.backoff_seconds").inc(delay)
        return delay
