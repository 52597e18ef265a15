"""Compare two outputs of ``bench/run.py``: did any end-to-end metric get worse?

    python3 bench/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: the medians of the measured
passes on each side, new / base, the bound from ``BENCHMARK.json`` and a
verdict.  Exit code 1 when any row reads ``worse`` (2 when a file cannot
be compared).  The counts that must repeat exactly between two runs of
one commit follow, as ``same`` or ``differs``; they never change the
exit code, because a change to the program may move them on purpose.

Verdicts, with "worse by" meaning in the metric's bad direction as a
share of the base median:

- ``unresolved``: the measured passes of either side spread (first to
  third quartile, or min to max with fewer than four) over more than the
  bound, and the two sides overlap: run more ``--reps``.
- ``worse`` / ``better``: worse, or better, by more than the bound.
- ``same``: within the bound.  Two suites run one after the other differ
  by what the host drifted in between, so a gain smaller than the bound
  is not to be read off this table: it takes interleaved pairs of runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: per-layer counts that repeat exactly between two runs of one commit and
#: seed, and the workloads on which they are one number: elsewhere they are
#: medians over however many jobs or runs fitted into the time
EXACT_ON = {
    "neighbors.grav_pairs": ("grav_default", "hydro_fine"),
    "sph.pairs": ("grav_default", "hydro_fine"),
    "resilience.attempts": ("resilient_ranks",),
    "resilience.steps_replayed": ("resilient_ranks",),
    "service.executed_jobs": ("service_mix",),
}


def spread(values: list[float]) -> float | None:
    """Quartile distance over the median; min to max below four values,
    and unknown (None) for a single one."""
    if len(values) < 2:
        return None
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    return width / abs(statistics.median(values))


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median) / abs(base_median)
    apart = max(new) < min(base) or min(new) > max(base)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > bound and not apart:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def measured_values(workload: dict, metric: str) -> list[float]:
    return [
        p["metrics"][metric]["value"] for p in workload["measured"] if metric in p["metrics"]
    ]


def compare(base: dict, new: dict, benchmark: dict) -> tuple[list[tuple], list[tuple]]:
    """(metric rows, exact-count rows) for the workloads both documents hold."""
    rows, exact = [], []
    for name in (w["name"] for w in benchmark["workloads"]):
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None or n is None:
            continue
        for metric in benchmark["end_to_end"]:
            bv, nv = measured_values(b, metric["name"]), measured_values(n, metric["name"])
            if not bv or not nv:
                rows.append((name, metric["name"], None, None, None, metric["bound"], "missing"))
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            rows.append(
                (name, metric["name"], bm, nm, nm / bm, metric["bound"],
                 verdict(bv, nv, metric["better"], metric["bound"]))
            )
        if (b.get("state_sha256"), n.get("state_sha256")) != (None, None):
            exact.append((name, "state_sha256", b.get("state_sha256"), n.get("state_sha256")))
        for key, workloads in EXACT_ON.items():
            if name in workloads:
                exact.append(
                    (name, key, *(w["traced"]["metrics"][key]["value"] for w in (b, n)))
                )
    return rows, exact


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        base, new = (json.loads(Path(p).read_text()) for p in argv)
        benchmark = json.loads(BENCHMARK.read_text())
        rows, exact = compare(base, new, benchmark)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: cannot compare: {exc!r}", file=sys.stderr)
        return 2
    for key in ("seed", "seconds", "nproc", "python", "numpy", "scipy", "xp_backend", "thread_env"):
        if base["record"].get(key) != new["record"].get(key):
            print(
                f"# runs differ in {key}: {base['record'].get(key)!r} vs {new['record'].get(key)!r}"
            )
    print(f"# base {base['record'].get('git_sha')}  new {new['record'].get('git_sha')}")
    print(f"{'workload':16} {'metric':12} {'base':>11} {'new':>11} {'new/base':>9} {'bound':>6}  verdict")
    for name, metric, bm, nm, ratio, bound, word in rows:
        if bm is None:
            print(f"{name:16} {metric:12} {'-':>11} {'-':>11} {'-':>9} {bound:>6.2f}  {word}")
        else:
            print(f"{name:16} {metric:12} {bm:>11.5g} {nm:>11.5g} {ratio:>9.4f} {bound:>6.2f}  {word}")
    for name, key, bv, nv in exact:
        print(f"{name:16} {key:26} {'same' if bv == nv else 'differs'}  {bv} | {nv}")
    return 1 if any(row[-1] in ("worse", "missing") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
