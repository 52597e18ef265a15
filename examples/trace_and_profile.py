"""Observability walkthrough: trace a run, profile its kernels.

This drives the full observability layer in ~60 lines of user code:

1. run the mini-app with a :class:`TraceRecorder` and a
   :class:`MetricsRegistry` attached — every step, kernel, and
   collective becomes a span on a shared timeline;
2. replay the recorded GPU workload through a device cost model with a
   :class:`KernelProfiler`, adding a simulated device track whose
   kernel spans carry occupancy/roofline annotations;
3. write ``trace.json`` (open it at https://ui.perfetto.dev or in
   ``chrome://tracing``) and ``metrics.json``, and print the
   per-kernel profile table and a flame summary.

Run:  python examples/trace_and_profile.py
"""

import json
import tempfile
from pathlib import Path

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.machine.registry import device_by_name
from repro.observability import (
    KernelProfiler,
    MetricsRegistry,
    TraceRecorder,
    format_profile_table,
    profile_trace,
)


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

    # 3. the artefacts
    outdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    trace_path = tracer.write(outdir / "trace.json")
    metrics_path = metrics.write(outdir / "metrics.json")
    n_events = len(json.loads(trace_path.read_text())["traceEvents"])
    print(f"\ntrace.json:   {trace_path} ({n_events} events)")
    print(f"metrics.json: {metrics_path}")
    print("open the trace at https://ui.perfetto.dev\n")
    print(tracer.flame_summary(limit=12))


if __name__ == "__main__":
    main()
