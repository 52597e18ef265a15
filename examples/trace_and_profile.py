"""Observability walkthrough: trace a run, profile its kernels.

This drives the full observability layer in ~60 lines of user code:

1. run the mini-app with a :class:`TraceRecorder` and a
   :class:`MetricsRegistry` attached — every step, kernel, and
   collective becomes a span on a shared timeline;
2. replay the recorded GPU workload through a device cost model with a
   :class:`~repro.kernels.profiler.KernelProfiler` (the analysis side,
   next to the ``TracePricer`` it listens to), adding a simulated
   device track whose kernel spans carry occupancy/roofline
   annotations, and print the per-kernel profile table;
3. write the run's one record, the JSONL event log, convert it to the
   Chrome trace (what ``python -m repro perfetto events.jsonl`` prints;
   open it at https://ui.perfetto.dev or in ``chrome://tracing``), and
   print a flame summary.

Run:  python examples/trace_and_profile.py
"""

import tempfile
from pathlib import Path

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.kernels.profiler import KernelProfiler, format_profile_table, profile_trace
from repro.machine.registry import device_by_name
from repro.observability.export import chrome_trace, read_events, write_event_log
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder


def main() -> None:
    # 1. the traced run: steps nest kernels, metrics count everything
    tracer = TraceRecorder()
    metrics = MetricsRegistry()
    driver = AdiabaticDriver(SimulationConfig(n_per_side=6, n_steps=3))
    driver.tracer = tracer
    driver.metrics = metrics
    print("Tracing a 3-step run ...")
    driver.run()
    print(
        f"  {len(tracer.spans)} spans recorded; "
        f"{metrics.counter('sim.kernel.launches').value:g} kernel launches counted"
    )

    # 2. the device replay: each launch priced on Aurora's cost model
    #    lands on a device track with occupancy/roofline annotations
    profiler = KernelProfiler(tracer=tracer, metrics=metrics)
    profile_trace(driver.trace, device_by_name("Aurora"), profiler=profiler)
    print("\nPer-kernel profile (simulated Aurora):")
    print(format_profile_table(profiler.rows()))

    # 3. the record: one event log, and the Chrome trace converted from it
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as outdir:
        events_path = write_event_log(
            Path(outdir) / "events.jsonl", tracer=tracer, metrics=metrics
        )
        records = read_events(events_path)
    timeline = chrome_trace(records)["traceEvents"]
    assert sum(e["ph"] == "X" for e in timeline) == len(tracer.spans)
    assert records[-1]["snapshot"] == metrics.snapshot()
    print(f"\nevents.jsonl: {len(records)} records")
    print(
        f"Chrome trace: {len(timeline)} events -- write it with "
        "python -m repro perfetto events.jsonl > trace.json\n"
        "and open it at https://ui.perfetto.dev\n"
    )
    print(tracer.flame_summary(limit=12))


if __name__ == "__main__":
    main()
