#!/usr/bin/env python
"""Validate a JSONL telemetry event log written by the repro
observability layer.

Usage::

    python tools/check_trace.py events.jsonl [more.jsonl ...]

The schema is the one ``write_event_log`` (``simulate``/``trace
--events-out``) and ``repro serve --events-out`` write; see
:data:`EVENT_LOG_KINDS` and :func:`validate_event_log`.  Per file:

- every line is a JSON object whose ``kind`` is in
  :data:`EVENT_LOG_KINDS`; the first record is the ``header``, and a
  ``metrics`` snapshot — the terminal record a live follower stops at
  — comes last;
- every record carries its kind's fields: names are non-empty
  strings, ``pid``/``tid``/``step``/``version`` integers, and the
  timeline fields ``ts``/``start``/``duration`` non-negative numbers
  (seconds on the producing recorder's clock);
- ``args``, when present, is a JSON object;
- resilience/degradation instants (``shrink``, ``degrade``,
  ``retry``) carry the args the degradation ladder
  promises (see :data:`RESILIENCE_INSTANT_ARGS`), and health ``alert``
  instants the detector/series/severity args the escalation path
  promises (see :data:`HEALTH_INSTANT_ARGS`), so dashboards can rely on
  them.

The Chrome trace is a conversion of a log (``python -m repro perfetto
events.jsonl``), so a valid log is all there is to check.

Exit status is 0 when every file passes and 1 otherwise; problems are
printed one per line as ``file: record #n: message``.  The module is
importable (used by the test suite): :func:`validate_event_log` checks
decoded records and returns the list of problems, and
:func:`validate_file` wraps it with file I/O and JSON decoding.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: required args keys for the degradation-ladder instant events
RESILIENCE_INSTANT_ARGS = {
    "shrink": ("dead_ranks", "survivors"),
    "degrade": ("action", "step"),
    "retry": ("attempt",),
}

#: required args keys for the health-monitor instant events
HEALTH_INSTANT_ARGS = {
    "alert": ("series", "step", "severity", "detector"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_name(kind, fld, value):
    if not isinstance(value, str) or not value:
        return f"missing or empty {fld!r}"
    return None


def _check_int(kind, fld, value):
    return None if _is_int(value) else f"{fld!r} must be an integer"


def _check_number(kind, fld, value):
    return None if _is_number(value) else f"{kind!r} record needs numeric {fld!r}"


def _check_time(kind, fld, value):
    if not _is_number(value):
        return f"{kind!r} record needs numeric {fld!r}"
    return f"{fld!r} must be >= 0, got {value}" if value < 0 else None


def _check_object(kind, fld, value):
    return None if isinstance(value, dict) else f"{kind!r} record needs object {fld!r}"


#: record kinds of the JSONL event-log schema, each with its required
#: fields and the check each must pass
EVENT_LOG_KINDS = {
    "header": {"version": _check_int},
    "series": {"name": _check_name, "step": _check_int, "value": _check_number},
    "alert": {
        "series": _check_name,
        "step": _check_int,
        "severity": _check_name,
        "detector": _check_name,
    },
    "track": {"pid": _check_int, "name": _check_name},
    "span": {
        "name": _check_name,
        "start": _check_time,
        "duration": _check_time,
        "pid": _check_int,
        "tid": _check_int,
    },
    "instant": {
        "name": _check_name,
        "ts": _check_time,
        "pid": _check_int,
        "tid": _check_int,
    },
    "counter": {
        "name": _check_name,
        "ts": _check_time,
        "value": _check_number,
        "pid": _check_int,
        "tid": _check_int,
    },
    "metrics": {"snapshot": _check_object},
}


def validate_event_log(records) -> list[str]:
    """Schema-check decoded JSONL event-log records; return problems."""
    problems: list[str] = []
    records = list(records)
    if not records:
        return ["event log: empty"]
    saw_metrics_at: int | None = None
    for i, record in enumerate(records):
        where = f"record #{i}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = record.get("kind")
        if kind not in EVENT_LOG_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        if i == 0 and kind != "header":
            problems.append(f"{where}: first record must be the header, got {kind!r}")
        if i > 0 and kind == "header":
            problems.append(f"{where}: duplicate header")
        for fld, check in EVENT_LOG_KINDS[kind].items():
            problem = check(kind, fld, record.get(fld))
            if problem:
                problems.append(f"{where}: {problem}")
        args = record.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object")
        if kind == "instant":
            name = record.get("name")
            required = RESILIENCE_INSTANT_ARGS.get(name) or HEALTH_INSTANT_ARGS.get(
                name, ()
            )
            present = args if isinstance(args, dict) else {}
            for key in required:
                if key not in present:
                    problems.append(f"{where}: {name!r} instant needs args.{key}")
        if saw_metrics_at is not None:
            problems.append(
                f"{where}: record after the terminal 'metrics' snapshot "
                f"(#{saw_metrics_at})"
            )
            saw_metrics_at = None  # report once per offender
        if kind == "metrics":
            saw_metrics_at = i
    return problems


def validate_file(path: str | Path) -> list[str]:
    """Validate one event-log file; return problems found."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"cannot read: {exc}"]
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return [f"line {lineno}: not valid JSON: {exc}"]
    return validate_event_log(records)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: check_trace.py EVENTS.jsonl [EVENTS.jsonl ...]", file=sys.stderr)
        return 2
    failed = False
    for name in argv:
        problems = validate_file(name)
        if problems:
            failed = True
            for problem in problems:
                print(f"{name}: {problem}")
        else:
            n_records = sum(1 for line in Path(name).read_text().splitlines() if line.strip())
            print(f"{name}: OK ({n_records} records)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
