#!/usr/bin/env python
"""Chaos-soak the resilience stack from the command line.

Usage::

    python tools/chaos_soak.py --runs 30 --seed 0 [--policy shrink]

Runs N seeded random fault plans through the fault-tolerant runner
(see :mod:`repro.resilience.chaos`) and asserts the termination
invariant: every run completes with physics matching the fault-free
reference, or aborts cleanly with a coherent attempt history — never
hangs, never silently diverges.  Exit status 0 when the invariant
holds for every run, 1 otherwise.

A SIGALRM watchdog (``--watchdog`` seconds, whole-soak budget) guards
the "never hangs" half when run standalone; under pytest the suite's
own per-test watchdog plays that role instead.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

# runnable both as a repo script (repro importable via src/) and from
# an installed environment
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.chaos import soak  # noqa: E402
from repro.resilience.degrade import DEGRADE_POLICIES  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=30, help="number of fault plans")
    parser.add_argument("--seed", type=int, default=0, help="base seed (run i uses seed+i)")
    parser.add_argument(
        "--policy",
        default="shrink",
        choices=DEGRADE_POLICIES,
        help="degradation ladder to soak (default: shrink)",
    )
    parser.add_argument(
        "--ranks", type=int, default=3, help="simulated MPI world size per run"
    )
    parser.add_argument("--steps", type=int, default=2, help="simulation steps per run")
    parser.add_argument(
        "--timeout", type=float, default=0.75, help="collective timeout (seconds)"
    )
    parser.add_argument(
        "--watchdog",
        type=float,
        default=900.0,
        help="whole-soak SIGALRM budget in seconds (0 disables)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final summary"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        print("error: --runs must be >= 1")
        return 2
    if args.ranks < 1:
        print("error: --ranks must be >= 1")
        return 2
    if args.timeout <= 0:
        print("error: --timeout must be positive")
        return 2

    use_watchdog = (
        args.watchdog > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if use_watchdog:

        def _expired(signum, frame):
            raise TimeoutError(
                f"chaos soak exceeded its {args.watchdog:.0f}s watchdog "
                "budget (hung run = invariant violated)"
            )

        signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, args.watchdog)
    try:
        report = soak(
            args.runs,
            base_seed=args.seed,
            degrade_policy=args.policy,
            world_size=args.ranks,
            n_steps=args.steps,
            timeout=args.timeout,
            echo=None if args.quiet else print,
        )
    finally:
        if use_watchdog:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    print(
        f"chaos soak: {len(report.outcomes)} run(s), "
        f"{report.n_completed} completed ({report.n_degraded} degraded), "
        f"{report.n_aborted} cleanly aborted -> invariant "
        f"{'HELD' if report.invariant_ok else 'VIOLATED'}"
    )
    return 0 if report.invariant_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
