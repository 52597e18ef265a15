"""The repo's benchmark: one command, every metric by name, results checked.

One pass of one workload (what the benchmark driver calls)::

    python3 bench/run.py --workload hydro_fine --seed 7 --seconds 20 --trace 0

measures for ``--seconds`` with nothing attached and prints the
end-to-end metrics; ``--trace 1`` runs the same inputs with the layers'
public callables wrapped in spans and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Without ``--trace`` it runs the whole suite, each pass in a fresh
process: ``--reps`` measured passes and one traced pass per workload
(all four, or the one named), and ends with one JSON document that
``compare.py`` reads, holding every pass and a record of the machine::

    python3 bench/run.py [--seed 2023] [--workload NAME] [--reps 3] [--out FILE]
"""

import time

_INTERPRETER_READY = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import PER_LAYER_UNITS, Instrumentation, layer_metrics
from machine import peak_rss_mb, pin_allocator
from spans import SpanTracer, highest_supported_percentile, median, percentile
from workloads import CLOSURE_FLOOR, WORKLOADS, StepWorkload

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: numeric libraries to one thread each: a workload never runs more than
#: nproc = 2 threads or clients, and its step time is that of one core
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: name -> unit; ``BENCHMARK.json`` lists the same with direction and bound
END_TO_END_UNITS = {
    "setup_s": "s",
    "unit_s": "s",
    "unit_p80_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: fresh interpreters whose set-up is timed for ``setup_s``
SETUP_PROBES = 3
#: scratch inside the checkout (checkpoints); listed in .gitignore
SCRATCH = ROOT / ".bench_tmp"
DEFAULT_SECONDS = 20


def enter_checkout() -> bool:
    """Make the program importable and pin threads, temporary files and
    the allocator, before numpy is first imported, which is when the
    thread pins are read.  Returns whether the allocator was pinned."""
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"bench: the program is not here: {SOURCE / 'repro'} is missing")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    for name in THREAD_PINS:
        os.environ[name] = "1"
    # whatever the program puts in a temporary directory stays in the checkout
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = str(SCRATCH)
    return pin_allocator()


def probe_setup(name: str, seed: int) -> float:
    """Seconds from interpreter-ready to the first unit of work being
    possible, in this process: imports plus the workload's ``setup``."""
    workdir = _workdir()
    try:
        WORKLOADS[name][1](seed).setup(workdir)
        return time.perf_counter() - _INTERPRETER_READY
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workdir() -> str:
    return tempfile.mkdtemp(prefix="pass-", dir=SCRATCH)


def _setup_samples(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", name, "--seed", str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_pass(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One measured or traced pass in this process; returns the exit code."""
    pass_start = time.perf_counter()
    workload = WORKLOADS[name][1](seed)
    workload.reference()
    instr = Instrumentation(SpanTracer()) if trace else None
    workdir = _workdir()
    try:
        if instr is not None:
            instr.install()
        workload.setup(workdir)
        outcome = workload.run(seconds, instr)
    finally:
        if instr is not None:
            instr.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    detail = dict(outcome.detail, samples=len(outcome.unit_s))
    notes: dict[str, str] = {}
    if trace:
        values = layer_metrics(instr.tracer, outcome.layer)
        units = PER_LAYER_UNITS
        detail["spans"] = len(instr.tracer.spans)
        if isinstance(workload, StepWorkload) and values["timestep.closure_frac"] < CLOSURE_FLOOR:
            outcome.failures.append(
                f"child spans cover {values['timestep.closure_frac']:.3f} of a step, "
                f"below {CLOSURE_FLOOR}"
            )
    else:
        setup = _setup_samples(name, seed)
        n = len(outcome.unit_s)
        values = {
            "setup_s": median(setup),
            "unit_s": median(outcome.unit_s),
            "unit_p80_s": percentile(outcome.unit_s, 80),
            "units_per_s": outcome.units_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"n={len(setup)}",
            "unit_s": f"n={n}",
            "unit_p80_s": f"n={n}, enough for p{highest_supported_percentile(n)} by the ten-beyond rule",
        }
    failed = min(len(outcome.failures), outcome.attempted)
    detail["pass_wall_s"] = time.perf_counter() - pass_start

    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    for key, value in values.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {value:.6g} {units[key]}{note}")
    print(f"failed_frac {failed / max(outcome.attempted, 1):.6g} ratio  (n={outcome.attempted})")
    for message in outcome.failures:
        print(f"FAILED {message}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": max(outcome.attempted, 1),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 1 if outcome.failures else 0


# -- the whole suite ------------------------------------------------------
def _run_record(seed: int, seconds: float, reps: int, allocator_pinned: bool) -> dict:
    import numpy
    import scipy

    from repro import xp

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "seed": seed,
        "seconds": seconds,
        "reps": reps,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ[name] for name in THREAD_PINS},
        "allocator_pinned": allocator_pinned,
        "xp_backend": xp.get_backend().name,
    }


def _child_pass(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one pass in a fresh process, echo what it printed, and return
    its result line together with its detail line."""
    done = subprocess.run(
        [
            sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "detail": {}}
    result = json.loads(lines[-1])
    result["detail"] = next(
        (json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {}
    )
    return result


def run_suite(names: list[str], record: dict, out: str | None) -> int:
    seed, seconds, reps = record["seed"], record["seconds"], record["reps"]
    document = {"record": record, "workloads": {}}
    exit_code = 0
    for name in names:
        measured = [_child_pass(name, seed, seconds, 0) for _ in range(reps)]
        traced = _child_pass(name, seed, seconds, 1)
        passes = measured + [traced]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        shas = {p["detail"].get("state_sha256") for p in passes}
        if len(shas) > 1:
            print(f"FAILED {name}: passes end on different states: {sorted(map(str, shas))}")
            failed += 1
        if failed or not all(p["correct"] for p in passes):
            exit_code = 1
        document["workloads"][name] = {
            "measured": measured,
            "traced": traced,
            "failed_frac": failed / attempted,
            "state_sha256": shas.pop() if len(shas) == 1 else None,
        }
        print(f"# {name}: failed_frac {failed / attempted:.6g}")
    text = json.dumps(document, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=1, help="measured passes per workload (suite)")
    parser.add_argument("--out", help="also write the suite's JSON document here")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    allocator_pinned = enter_checkout()
    if args.probe_setup or args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.probe_setup:
            print(probe_setup(args.workload, args.seed))
            return 0
        return run_pass(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [args.workload] if args.workload else list(WORKLOADS)
    record = _run_record(args.seed, args.seconds, max(args.reps, 1), allocator_pinned)
    return run_suite(names, record, args.out)


if __name__ == "__main__":
    sys.exit(main())
