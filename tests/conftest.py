"""Shared fixtures for the test suite.

The expensive fixtures (the reference physics run and the generated
codebase model) are session-scoped: the physics runs once and every
pricing/metric test reuses its workload trace.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.experiments.workload import workload_config
from repro.hacc.ic import ICConfig, zeldovich_ics
from repro.hacc.timestep import AdiabaticDriver

#: per-test watchdog budget (seconds); override per test with
#: ``@pytest.mark.timeout(seconds)``.  Generous enough for the
#: session-scoped physics fixtures, tight enough that a regressed
#: collective deadlock fails the suite instead of hanging it.
DEFAULT_TEST_TIMEOUT = 300.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "faults: fault-injection / resilience scenario tests"
    )
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test watchdog budget (stdlib SIGALRM based; "
        f"default {DEFAULT_TEST_TIMEOUT:.0f}s)",
    )
    config.addinivalue_line(
        "markers", "observability: tracing / metrics / profiling tests"
    )


@pytest.fixture(autouse=True)
def _test_watchdog(request):
    """Stdlib deadlock watchdog: any test (e.g. one that regresses a
    collective into a deadlock) is killed by SIGALRM after its budget
    instead of hanging the whole suite.

    CPython delivers signals on the main thread and its lock/join
    waits are signal-interruptible, so this fires even while the test
    is blocked joining deadlocked rank threads.  No-op on platforms
    without ``SIGALRM`` or when pytest runs off the main thread.
    """
    if not hasattr(signal, "SIGALRM") or (
        threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    marker = request.node.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else DEFAULT_TEST_TIMEOUT

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:.0f}s watchdog budget "
            "(deadlocked collective?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def reference_driver():
    """The completed run the figures price (2x 8^3 particles, 5 steps)."""
    driver = AdiabaticDriver(workload_config())
    driver.run()
    return driver


@pytest.fixture(scope="session")
def reference_trace(reference_driver):
    """The workload trace of the reference run."""
    return reference_driver.trace


@pytest.fixture(scope="session")
def small_particles():
    """A small two-species particle set (2x 6^3) at z=200."""
    return zeldovich_ics(ICConfig(n_per_side=6, box=177.0 * 6 / 512, seed=7))


@pytest.fixture(scope="session")
def codebase_model(tmp_path_factory):
    """The generated CRK-HACC codebase model and its analysis."""
    from repro.core.codebase import analyze_model, generate_codebase

    root = tmp_path_factory.mktemp("crkhacc") / "src"
    generate_codebase(root)
    return analyze_model(root)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
