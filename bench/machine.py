"""The machine under the benchmark: its allocator, pinned, and the peak
memory of a pass."""

from __future__ import annotations

import ctypes
import resource


def pin_allocator() -> bool:
    """Have glibc serve every request of every thread from its one heap
    and never give memory back, so that the steady state of a workload
    takes no page faults.

    By default every numpy temporary above 128 KiB is mapped afresh and
    unmapped again, and a steady ``grav_default`` step spends 0.7 to 4.9 s
    of its 2.6 to 6.4 s in the kernel's page-fault path, which on the
    shared host varies that much within one run; pinned, the same step
    takes 2.0 s to within a few percent.  What the pin hides is paid
    once, in each driver's first step, and shows in
    ``timestep.first_step_s``.  Without the single arena the rank and
    worker threads keep a heap each, and ``peak_rss_mb`` of
    ``resilient_ranks`` spreads over 19 % instead of 4 %.
    Returns False where the C library has no ``mallopt`` (nothing pinned).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max, m_arena_max = -1, -4, -8
    return all(
        mallopt(option, value) == 1
        for option, value in ((m_mmap_max, 0), (m_trim_threshold, 2**31 - 1), (m_arena_max, 1))
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  With the allocator pinned
    this is the heap's high-water mark: what the largest unit of work
    needed, not what happened to be resident when it ran."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
