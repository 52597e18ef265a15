"""The performance-portability metric (Section 3.2).

Equation 1 of the paper (Pennycook, Sewall & Lee):

    PP(a, p, H) = |H| / sum_{i in H} 1/e_i(a, p)    if e_i != 0 for all i
                  0                                  otherwise

where ``e_i`` is the efficiency with which application ``a`` solves
problem ``p`` on platform ``i``.  The harmonic mean rewards uniformly
high efficiency and zeroes out for any unsupported platform -- which is
how CUDA/HIP (no Aurora) and inline vISA (Intel-only) score 0 in
Figure 12 despite excellent performance where they do run.

Efficiency here is *application efficiency*: performance relative to
the best observed performance on the same platform, the convention the
paper uses ("application efficiency is calculated relative to a
hypothetical application that is able to use the best version of each
kernel on every platform").
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean; 0 if any value is 0 (PP's convention)."""
    values = list(values)
    if not values:
        raise ValueError("harmonic mean of an empty sequence")
    for v in values:
        if v < 0:
            raise ValueError(f"efficiencies must be non-negative, got {v}")
    if any(v == 0.0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def application_efficiency(observed_time: float, best_time: float) -> float:
    """Application efficiency: best achievable time over observed time.

    A configuration matching the platform's best performance scores 1;
    one that fails to run is conventionally assigned 0 by the caller.
    """
    if best_time < 0 or observed_time < 0:
        raise ValueError("times must be non-negative")
    if observed_time == 0.0:
        if best_time == 0.0:
            return 1.0
        raise ValueError("observed time of zero with nonzero best time")
    return min(1.0, best_time / observed_time)


def performance_portability(efficiencies: Mapping[str, float] | Sequence[float]) -> float:
    """PP across a platform set (Equation 1).

    ``efficiencies`` maps platform name -> efficiency in [0, 1] (or is
    a bare sequence).  Missing/unsupported platforms must be encoded as
    efficiency 0 by the caller; PP is then 0.
    """
    if isinstance(efficiencies, Mapping):
        values = list(efficiencies.values())
    else:
        values = list(efficiencies)
    if not values:
        raise ValueError("PP over an empty platform set is undefined")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"efficiency {v} outside [0, 1]")
    return harmonic_mean(values)
