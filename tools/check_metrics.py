#!/usr/bin/env python
"""Metric-glossary lint: every emitted metric name must be documented.

Usage::

    python tools/check_metrics.py              # lint, exit 1 on problems
    python tools/check_metrics.py --table      # print the markdown table
    python tools/check_metrics.py --write-glossary README.md

The observability layer's contract is that every metric name appearing
in the instrumented source has a one-line description in
:data:`repro.observability.metrics.METRIC_GLOSSARY` — that description
is the row in the README's glossary table, the reference for reading
the ``metrics`` record that closes every event log.  This lint keeps
the contract honest in both directions:

- a metric name used in ``src/repro`` but missing from the glossary is
  an *undocumented* metric (it would reach the event log unexplained);
- a glossary entry whose name never appears in the source is *stale*
  (documentation for a metric nothing emits).

Metric names are found by scanning string literals that look like
dotted metric identifiers under the known namespaces
(:data:`METRIC_NAMESPACES`); the glossary's own defining module is
excluded from the scan so definitions don't count as uses.

``--write-glossary FILE`` regenerates the markdown table between the
``<!-- metric-glossary:begin -->`` / ``<!-- metric-glossary:end -->``
markers in FILE (the README), failing if the markers are absent.  The
test suite imports :func:`scan_metric_names` and :func:`lint` and also
asserts the committed README table is current.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: top-level namespaces the registry's metric names live under
METRIC_NAMESPACES = ("sim", "device", "mpi", "resilience", "checkpoint", "svc")

#: begin/end markers the README glossary table sits between
GLOSSARY_BEGIN = "<!-- metric-glossary:begin -->"
GLOSSARY_END = "<!-- metric-glossary:end -->"

_METRIC_LITERAL = re.compile(
    r"""["'](%s)\.[a-z0-9_]+(?:\.[a-z0-9_]+)*["']""" % "|".join(METRIC_NAMESPACES)
)


def _glossary() -> dict[str, str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.observability.metrics import METRIC_GLOSSARY

    return METRIC_GLOSSARY


def scan_metric_names(root: Path = SRC_ROOT) -> dict[str, list[str]]:
    """Metric-name string literals in the source tree.

    Returns ``{name: [file:line, ...]}``.  The glossary's defining
    module is excluded so the definitions themselves don't register as
    uses.
    """
    uses: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        if path.name == "metrics.py" and path.parent.name == "observability":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for match in _METRIC_LITERAL.finditer(line):
                name = match.group(0).strip("\"'")
                uses.setdefault(name, []).append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}"
                )
    return uses


def lint(glossary: dict[str, str] | None = None) -> list[str]:
    """Problems with the glossary/source correspondence (empty = clean)."""
    glossary = _glossary() if glossary is None else glossary
    uses = scan_metric_names()
    problems: list[str] = []
    for name in sorted(set(uses) - set(glossary)):
        problems.append(
            f"undocumented metric {name!r} (used at {uses[name][0]}) "
            "-- add it to METRIC_GLOSSARY"
        )
    for name in sorted(set(glossary) - set(uses)):
        problems.append(
            f"stale glossary entry {name!r}: no source emits it"
        )
    return problems


def glossary_table(glossary: dict[str, str] | None = None) -> str:
    """The glossary as a markdown table (sorted by name)."""
    glossary = _glossary() if glossary is None else glossary
    lines = ["| metric | description |", "| --- | --- |"]
    for name in sorted(glossary):
        lines.append(f"| `{name}` | {glossary[name]} |")
    return "\n".join(lines)


def write_glossary(path: str | Path, glossary: dict[str, str] | None = None) -> bool:
    """Replace the marked README section with the current table.

    Returns True when the file changed.  Raises ``ValueError`` when the
    markers are missing (the section must exist to be maintained).
    """
    path = Path(path)
    text = path.read_text()
    begin = text.find(GLOSSARY_BEGIN)
    end = text.find(GLOSSARY_END)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            f"{path}: needs '{GLOSSARY_BEGIN}' and '{GLOSSARY_END}' markers"
        )
    head = text[: begin + len(GLOSSARY_BEGIN)]
    tail = text[end:]
    updated = f"{head}\n{glossary_table(glossary)}\n{tail}"
    if updated == text:
        return False
    path.write_text(updated)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_metrics.py", description="metric glossary lint"
    )
    parser.add_argument(
        "--table", action="store_true", help="print the markdown glossary table"
    )
    parser.add_argument(
        "--write-glossary",
        metavar="FILE",
        help="rewrite the glossary table between the markers in FILE",
    )
    args = parser.parse_args(argv)

    if args.table:
        print(glossary_table())
        return 0
    if args.write_glossary:
        try:
            changed = write_glossary(args.write_glossary)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"{args.write_glossary}: "
            + ("glossary table updated" if changed else "already current")
        )
        return 0

    problems = lint()
    if problems:
        for problem in problems:
            print(problem)
        return 1
    glossary = _glossary()
    print(f"metric glossary OK ({len(glossary)} documented metrics)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
