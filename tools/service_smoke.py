#!/usr/bin/env python
"""Smoke-test the simulation service end to end from the command line.

Usage::

    python tools/service_smoke.py [--events-out events.jsonl] [--jobs 6]

Starts a ``repro serve`` process on a private unix socket, submits a
batch of jobs with deliberate duplicates through the wire client,
then asserts the service-level invariants a deployment cares about:

- every request completes with products;
- duplicates are served by coalescing or the result cache — at least
  one cache hit is observed for the repeated spec;
- a job whose gas leaks energy (``leak:step=3,rate=0.12,count=3``) is
  caught by the in-flight judge and rolled back: it completes degraded
  after two attempts;
- the ``shutdown`` op drains cleanly and the server process exits 0,
  and no ``job-*`` checkpoint directory outlives its job;
- the live events log (when requested) passes the schema validator
  in :mod:`tools.check_trace` — header first, terminal metrics
  snapshot last.

Exit status 0 when every invariant holds, 1 otherwise.  This is the
CI ``service-smoke`` job in miniature, runnable locally.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# runnable both as a repo script (repro importable via src/) and from
# an installed environment
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check_trace  # noqa: E402 — sibling tool
from repro.service import request, submit_job  # noqa: E402

#: a slow energy leak the health judge must catch and roll back
LEAK_PLAN = "leak:step=3,rate=0.12,count=3"


def _wait_for_socket(socket_path: Path, proc: subprocess.Popen, budget: float) -> None:
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"FAIL: serve exited early with {proc.returncode}")
        if socket_path.exists():
            try:
                request(socket_path, {"op": "ping"}, timeout=5)
                return
            except OSError:
                pass
        time.sleep(0.1)
    raise SystemExit(f"FAIL: no socket at {socket_path} after {budget:.0f}s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=6, help="submissions (>=2)")
    parser.add_argument("--n", type=int, default=6, help="particles per side")
    parser.add_argument("--steps", type=int, default=1, help="steps per job")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--events-out", default=None, help="events JSONL to validate")
    parser.add_argument("--startup-budget", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.jobs < 2:
        parser.error("--jobs must be >= 2 to exercise duplicates")
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as workdir:
        return _smoke(args, Path(workdir))


def _smoke(args: argparse.Namespace, workdir: Path) -> int:
    socket_path = workdir / "repro.sock"
    events = Path(args.events_out) if args.events_out else workdir / "events.jsonl"

    serve_cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--socket",
        str(socket_path),
        "--workers",
        str(args.workers),
        "--checkpoint-dir",
        str(workdir / "ckpts"),
        "--events-out",
        str(events),
    ]
    print(f"-- starting: {' '.join(serve_cmd)}")
    proc = subprocess.Popen(serve_cmd)
    failures: list[str] = []
    try:
        _wait_for_socket(socket_path, proc, args.startup_budget)
        print(f"-- serving on {socket_path}")

        # half the batch shares one spec (the duplicates), the rest
        # are distinct seeds — both dedup paths get exercised
        specs = []
        for i in range(args.jobs):
            seed = 7 if i % 2 == 0 else 1000 + i
            specs.append({"n_per_side": args.n, "n_steps": args.steps, "seed": seed})

        completed = 0
        for i, spec in enumerate(specs):
            final = list(submit_job(socket_path, spec, timeout=300))[-1]
            if final.get("ok") and final.get("state") == "completed":
                completed += 1
                cached = final["result"].get("from_cache", False)
                print(f"   job {final['job_id']}: seed={spec['seed']} cached={cached}")
            else:
                failures.append(f"submission {i} failed: {final}")

        stats = request(socket_path, {"op": "stats"}, timeout=30)["stats"]
        counters = stats["counters"]
        hits = counters.get("svc.cache.hits", 0)
        coalesced = counters.get("svc.jobs.coalesced", 0)
        print(
            f"-- {completed}/{args.jobs} completed, "
            f"cache hits={hits}, coalesced={coalesced}, "
            f"cache bytes={stats['cache']['bytes']}"
        )
        if completed != args.jobs:
            failures.append(f"only {completed}/{args.jobs} submissions completed")
        if hits + coalesced < 1:
            failures.append("duplicate specs produced no cache hit or coalescing")

        leak = {"n_per_side": args.n, "n_steps": 8, "faults": LEAK_PLAN}
        final = list(submit_job(socket_path, leak, timeout=300))[-1]
        result = final.get("result") or {}
        print(
            f"   leaking job: state={final.get('state')} "
            f"degraded={result.get('degraded')} attempts={result.get('attempts')}"
        )
        if not (
            final.get("ok")
            and final.get("state") == "completed"
            and result.get("degraded") is True
            and result.get("attempts") == 2
        ):
            failures.append(f"the leaking job was not rolled back once: {final}")

        request(socket_path, {"op": "shutdown"}, timeout=30)
        proc.wait(timeout=60)
        if proc.returncode != 0:
            failures.append(f"serve exited {proc.returncode} after shutdown")
        else:
            print("-- clean shutdown")
        left = sorted(p.name for p in (workdir / "ckpts").glob("job-*"))
        if left:
            failures.append(f"checkpoint directories outlived their jobs: {left}")
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    if not events.exists():
        failures.append(f"no events log at {events}")
    else:
        problems = check_trace.validate_file(events)
        if problems:
            failures.extend(f"events log: {p}" for p in problems)
        else:
            n_lines = len(events.read_text().splitlines())
            print(f"-- events log OK ({n_lines} records, schema valid)")

    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
