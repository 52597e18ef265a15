"""In-flight guards: catch corruption the step it happens.

- :class:`KernelGuard` installs itself as the driver's
  :attr:`~repro.hacc.timestep.AdiabaticDriver.kernel_hook` and screens
  every hot kernel's freshly produced outputs for NaN/Inf *before*
  anything consumes them, raising :class:`GuardViolation` in the same
  step the corruption appears;
- :class:`RetryPolicy` bounds the recovery loop: how many times the
  runner may retry from the last checkpoint (the runner halves the
  checkpoint cadence on each recovery).

The physics of a completed step is judged elsewhere, once: by the
driver's health monitor (:mod:`repro.observability.health`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hacc.timestep import AdiabaticDriver
from repro.resilience.backoff import BackoffPolicy


class GuardError(RuntimeError):
    """Base class for step-level guard failures."""


class GuardViolation(GuardError):
    """A kernel emitted non-finite output."""

    def __init__(self, kernel: str, step: int, output: str, n_bad: int):
        super().__init__(
            f"kernel {kernel} produced {n_bad} non-finite value(s) "
            f"in output {output!r} at step {step}"
        )
        self.kernel = kernel
        self.step = step
        self.output = output
        self.n_bad = n_bad


@dataclass
class RetryPolicy:
    """Bounds for the retry-from-last-checkpoint loop."""

    #: restarts allowed before the run is declared lost
    max_retries: int = 3
    #: inter-attempt delay schedule (exponential + deterministic
    #: seeded jitter); shared by every transient retry in the stack
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class KernelGuard:
    """NaN/Inf screen over the hot kernels' outputs.

    :meth:`install` chains the guard (and, optionally, a fault
    injector's corruption hook — injection first, screening second, so
    an injected NaN is caught by the same screen a real one would be)
    onto a driver's ``kernel_hook``.
    """

    def __init__(self, *, metrics=None):
        #: optional MetricsRegistry; feeds the guard-hit-rate health
        #: series (sim.resilience.guard_screens / guard_violations)
        self.metrics = metrics

    def screen(self, name: str, step: int, outputs: dict[str, np.ndarray]) -> None:
        if self.metrics is not None:
            self.metrics.counter("sim.resilience.guard_screens").inc()
        for out_name, arr in outputs.items():
            finite = np.isfinite(arr)
            if not finite.all():
                if self.metrics is not None:
                    self.metrics.counter("sim.resilience.guard_violations").inc()
                raise GuardViolation(
                    name, step, out_name, int(arr.size - finite.sum())
                )

    def install(
        self, driver: AdiabaticDriver, *, injector=None, rank: int = 0
    ) -> None:
        def hook(name: str, step: int, outputs: dict[str, np.ndarray]) -> None:
            if injector is not None:
                injector.corrupt_kernel(name, step, rank, outputs)
            self.screen(name, step, outputs)

        driver.kernel_hook = hook
