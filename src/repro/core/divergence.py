"""Code divergence (Section 3.3).

Equations 2-3 of the paper: code divergence is the average pair-wise
Jaccard distance between the per-platform source-line sets,

    CD(a, p, H) = (|H| choose 2)^-1 * sum_{(i,j)} d_ij(a, p)
    d_ij = 1 - |c_i intersect c_j| / |c_i union c_j|

where ``c_i`` is the set of source lines needed to compile and run on
platform ``i``.  Convergence is ``1 - CD``.  Values: 0 = all code
shared, 1 = fully specialised per platform.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Set


def jaccard_distance(a: Set, b: Set) -> float:
    """1 - |a & b| / |a | b|; two empty sets are identical (0)."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def code_divergence(platform_lines: Mapping[str, Set]) -> float:
    """Average pair-wise Jaccard distance over the platform set.

    ``platform_lines`` maps platform name -> set of source lines
    (any hashable line identity; :mod:`repro.core.sloc` produces
    ``(file, line_number)`` pairs).
    """
    platforms = sorted(platform_lines)
    if len(platforms) < 2:
        raise ValueError("code divergence needs at least two platforms")
    pairs = list(itertools.combinations(platforms, 2))
    total = sum(
        jaccard_distance(platform_lines[i], platform_lines[j]) for i, j in pairs
    )
    return total / len(pairs)


def code_convergence(platform_lines: Mapping[str, Set]) -> float:
    """1 - code divergence (the Figure 13 y-axis)."""
    return 1.0 - code_divergence(platform_lines)
