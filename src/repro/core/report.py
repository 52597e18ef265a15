"""Live reproduction report.

Generates a markdown report of every table and figure -- the same
content EXPERIMENTS.md records, but regenerated from the current code
so drift between documentation and implementation is impossible to
miss.  Used by the CLI (``python -m repro report``) and by tests that
assert the report's claims agree with the paper's targets.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from repro.core.cascade import CascadeData
from repro.core.charts import render_cascade, render_navigation
from repro.experiments import figure2, figure12, figure13, figures9_11, table1, table2
from repro.experiments.ablations import (
    best_register_config,
    register_sweep,
    specialization_gain,
)
from repro.hacc.timestep import WorkloadTrace
from repro.migrate.stats import bundled_migration_stats, format_stats


@dataclass(frozen=True)
class ReproductionReport:
    """The full generated report."""

    markdown: str
    cascade: CascadeData

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.markdown)
        return path


def _section(out: io.StringIO, title: str) -> None:
    out.write(f"\n## {title}\n\n")


def generate_report(trace: WorkloadTrace) -> ReproductionReport:
    """Regenerate every artefact and render the markdown report."""
    out = io.StringIO()
    out.write("# CRK-HACC SYCL performance-portability reproduction — live report\n")

    _section(out, "Table 1 — hardware configuration")
    out.write("```\n" + table1.format_table() + "\n```\n")

    _section(out, "Figure 2 — initial migration performance")
    bars = figure2.generate(trace)
    out.write("```\n" + figure2.format_figure(bars) + "\n```\n\n")
    for name, value in figure2.headline_checks(bars).items():
        out.write(f"- `{name}` = {value:.2f}\n")

    _section(out, "Figures 9–11 — variant efficiencies")
    for table in figures9_11.generate(trace).values():
        out.write("```\n" + figures9_11.format_figure(table) + "\n```\n")

    _section(out, "Figure 12 — cascade plot")
    cascade = figure12.generate(trace)
    out.write("```\n" + figure12.format_figure(cascade) + "\n```\n")
    out.write("\n```\n" + render_cascade(cascade) + "\n```\n")

    _section(out, "Figure 13 — navigation chart")
    points = figure13.generate(trace)
    out.write("```\n" + figure13.format_figure(points) + "\n```\n")
    out.write("\n```\n" + render_navigation(points) + "\n```\n")

    _section(out, "Table 2 — SLOC breakdown")
    out.write("```\n" + table2.format_table() + "\n```\n")

    _section(out, "Migration statistics (Section 6.2 narrative)")
    out.write("```\n" + format_stats(bundled_migration_stats()) + "\n```\n")

    _section(out, "Ablations")
    out.write("Best register configuration per kernel on Aurora:\n\n")
    for kernel, (sg, grf) in sorted(
        best_register_config(register_sweep(trace)).items()
    ):
        out.write(f"- {kernel}: sub-group {sg}, GRF {grf}\n")
    out.write("\nSpecialization gain per system:\n\n")
    for row in specialization_gain(trace):
        out.write(
            f"- {row.system}: best single variant "
            f"`{row.best_single_variant}`, per-kernel selection gains "
            f"{row.gain:.2f}x\n"
        )

    return ReproductionReport(markdown=out.getvalue(), cascade=cascade)
