"""Maintenance-cost model (Section 7.1).

"Any significant changes to the CUDA kernels had to be mirrored in the
SYCL kernels ... any duplication of logic in the code also duplicates
the cost of code maintenance."

This module turns that observation into a number.  For a configuration
(a per-platform build assignment over the codebase model), a *semantic
kernel change* must be applied once per distinct source copy of the
kernels.  Copies are identified structurally: each platform build's
*kernel region* is its line set minus the host code every build shares
('All' in Table 2); a build whose kernel region largely overlaps an
already-counted copy adds only its non-overlapping fraction.

The resulting **maintenance factor** is:

- 1.0 for any single-source configuration,
- ~1.002 for Select+Memory (the 19-line local-memory exchange),
- ~1.02 for Select+vISA (the 226 inline-assembly lines),
- ~2.2 for Unified (full CUDA and SYCL kernel copies, plus the
  CUDA-only lines HIP does not share) --

quantifying exactly the Section 7.1 duplication argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.codebase import CONFIGURATION_PLATFORM_BUILDS
from repro.core.divergence import jaccard_distance
from repro.core.sloc import CodebaseAnalysis, Line


@dataclass(frozen=True)
class MaintenanceEstimate:
    """Maintenance factor of one configuration."""

    configuration: str
    #: per-platform kernel-region sizes (diagnostic)
    kernel_region_sizes: dict[str, int]
    #: effective number of kernel-source copies to maintain
    factor: float


def _kernel_regions(
    analysis: CodebaseAnalysis, configuration: str
) -> dict[str, set[Line]]:
    """Per-platform kernel regions: build lines minus the code every
    build of the model shares (the host code, 'All' in Table 2)."""
    builds = CONFIGURATION_PLATFORM_BUILDS.get(configuration)
    if builds is None:
        raise KeyError(
            f"unknown configuration {configuration!r}; known: "
            f"{sorted(CONFIGURATION_PLATFORM_BUILDS)}"
        )
    everywhere = set.intersection(*analysis.config_lines.values())
    return {
        platform: analysis.config_lines[build] - everywhere
        for platform, build in builds.items()
    }


def maintenance_factor(
    analysis: CodebaseAnalysis, configuration: str
) -> MaintenanceEstimate:
    """Effective number of kernel copies ``configuration`` maintains.

    Greedy clustering: the first platform's kernel region is copy #1;
    every further platform adds ``min over counted copies of the
    Jaccard distance`` -- 0 for an identical build, ~1 for a disjoint
    reimplementation.
    """
    regions = _kernel_regions(analysis, configuration)
    platforms = sorted(regions)
    counted: list[set[Line]] = []
    factor = 0.0
    for platform in platforms:
        region = regions[platform]
        if not region:
            continue
        if not counted:
            counted.append(region)
            factor += 1.0
            continue
        nearest = min(jaccard_distance(region, c) for c in counted)
        if nearest > 0.0:
            factor += nearest
            counted.append(region)
    if factor == 0.0:
        factor = 1.0  # fully shared: one copy
    return MaintenanceEstimate(
        configuration=configuration,
        kernel_region_sizes={p: len(r) for p, r in regions.items()},
        factor=factor,
    )


def kernel_change_factors(analysis: CodebaseAnalysis) -> dict[str, float]:
    """Maintenance factors for every Figure 12/13 configuration."""
    return {
        configuration: maintenance_factor(analysis, configuration).factor
        for configuration in CONFIGURATION_PLATFORM_BUILDS
    }
