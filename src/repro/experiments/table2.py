"""Table 2: SLOC breakdown across CRK-HACC variants."""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.codebase import (
    PAPER_TABLE2,
    PAPER_TOTAL_SLOC,
    analyze_model,
    generate_codebase,
    table2_rows,
)


def generate(root: Path | None = None) -> list[dict]:
    """Regenerate Table 2 from the codebase model."""
    if root is None:
        with tempfile.TemporaryDirectory(prefix="crkhacc-model-") as scratch:
            return generate(Path(scratch) / "src")
    if not root.exists():
        generate_codebase(root)
    analysis = analyze_model(root)
    return table2_rows(analysis)


def format_table(rows: list[dict] | None = None) -> str:
    rows = rows if rows is not None else generate()
    lines = [f"{'Implementations':<22} {'# SLOC':>8} {'% SLOC':>7} {'paper':>8}"]
    lines.append("-" * len(lines[0]))
    for r in rows:
        paper = PAPER_TABLE2.get(r["implementations"])
        if r["implementations"] == "Total":
            paper = PAPER_TOTAL_SLOC
        paper_s = f"{paper:,}" if paper is not None else "--"
        lines.append(
            f"{r['implementations']:<22} {r['sloc']:>8,} {r['pct']:>6.2f}% {paper_s:>8}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table())
