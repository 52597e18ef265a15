"""The shared experiment workload.

The paper's test problem is 2x 512^3 particles over 8 ranks, five
steps from z = 200 to z = 50 (Section 3.4).  The reproduction scales
the per-rank particle count down (the box shrinks with it, preserving
the mass resolution exactly as the paper's own scaling rule does) and
runs the same five steps.  The resulting workload trace -- kernel
launches with their interaction counts -- is what every experiment
prices on the virtual GPUs.

The trace is cached per configuration, so the experiment suite runs
the physics once.
"""

from __future__ import annotations

from functools import lru_cache

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig, WorkloadTrace

#: default per-rank particle grid for experiments (2x n^3 particles);
#: small enough for seconds-scale physics, large enough for stable
#: neighbour statistics
DEFAULT_N_PER_SIDE = 8


def workload_config(n_per_side: int = DEFAULT_N_PER_SIDE) -> SimulationConfig:
    """The paper's test problem at reproduction scale."""
    return SimulationConfig(n_per_side=n_per_side, n_steps=5)


@lru_cache(maxsize=4)
def _cached_run(n_per_side: int) -> tuple[WorkloadTrace, tuple]:
    driver = AdiabaticDriver(workload_config(n_per_side))
    diagnostics = tuple(driver.run())
    return driver.trace, diagnostics


def reference_trace(n_per_side: int = DEFAULT_N_PER_SIDE) -> WorkloadTrace:
    """The cached workload trace of the reference physics run."""
    trace, _diags = _cached_run(n_per_side)
    return trace


def reference_diagnostics(n_per_side: int = DEFAULT_N_PER_SIDE):
    """Per-step conservation diagnostics of the reference run."""
    _trace, diags = _cached_run(n_per_side)
    return diags
