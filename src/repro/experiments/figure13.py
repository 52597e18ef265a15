"""Figure 13: the navigation chart (PP vs code convergence).

Joins the cascade plot's PP values with per-configuration code
convergence computed from the CRK-HACC codebase model.  The paper's
landmarks: the specialised SYCL variants sit at convergence ~1.0
(select vs local-memory differ by 19 lines; vISA adds 226), while
Unified drops to ~0.83 because every kernel exists in both CUDA and
SYCL.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.cascade import CascadeData
from repro.core.codebase import (
    analyze_model,
    convergence_by_configuration,
    generate_codebase,
)
from repro.core.navigation import NavigationPoint, navigation_data
from repro.experiments import figure12
from repro.hacc.timestep import WorkloadTrace

#: paper-reported convergence landmarks
PAPER_CONVERGENCE = {
    "SYCL (Select + Memory)": 1.0,   # "almost 1.0"
    "SYCL (Select + vISA)": 1.0,     # "almost 1.0"
    "Unified": 0.83,
}


def compute_convergence(root: Path | None = None) -> dict[str, float]:
    """Code convergence per configuration from the codebase model."""
    if root is None:
        with tempfile.TemporaryDirectory(prefix="crkhacc-model-") as scratch:
            return compute_convergence(Path(scratch) / "src")
    if not any(root.rglob("*.cpp")) if root.exists() else True:
        generate_codebase(root)
    analysis = analyze_model(root)
    return convergence_by_configuration(analysis)


def generate(
    trace: WorkloadTrace | None = None, codebase_root: Path | None = None
) -> list[NavigationPoint]:
    """Regenerate the navigation-chart points."""
    cascade: CascadeData = figure12.generate(trace)
    convergence = compute_convergence(codebase_root)
    return navigation_data(cascade, convergence)


def format_figure(points: list[NavigationPoint] | None = None) -> str:
    points = points if points is not None else generate()
    lines = [f"{'Configuration':<26} {'PP':>6} {'convergence':>12} {'paper conv.':>11}"]
    lines.append("-" * len(lines[0]))
    for p in points:
        paper = PAPER_CONVERGENCE.get(p.name)
        paper_s = f"{paper:.2f}" if paper is not None else "    --"
        lines.append(
            f"{p.name:<26} {p.performance_portability:>6.3f} "
            f"{p.code_convergence:>12.4f} {paper_s:>11}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_figure())
