"""Physics health monitoring: a slow energy leak caught in flight.

A production campaign does not discover a sick run by inspecting the
final output — it watches the physics while stepping.  This example
injects the subtlest corruption the fault injector knows, a *slow
energy leak* (12% of the gas internal energy drained per step for
three steps: no NaNs, no dead ranks, every state variable finite and
plausible), and shows the telemetry pipeline catching it:

1. the :class:`~repro.observability.health.HealthMonitor` derives the
   expansion-corrected thermal residual after every step — a healthy
   adiabatic run keeps it >= 0 (beyond the exact ``u ∝ a⁻²`` factor
   the hydro can only heat);
2. the EWMA drift detector sees the residual shift *down* on the very
   first leaking step and raises a FATAL alert;
3. the resilience runner escalates the alert through the same
   rollback seam a NaN guard uses: the attempt fails, the run
   restarts from the last pre-leak checkpoint, the (transient) leak
   does not replay, and the recovered run finishes clean —
   many steps before the RunValidator's coarse 50% conservation band
   would have noticed anything.

The run's telemetry is then exported: a JSONL event log (replayable
with ``python -m repro dashboard``), an OpenMetrics exposition, and
the final dashboard frame rendered to stdout.

Run:  python examples/health_monitoring.py
"""

import tempfile
from pathlib import Path

from repro.hacc.timestep import SimulationConfig
from repro.observability import MetricsRegistry, TraceRecorder
from repro.observability.dashboard import DashboardState, render
from repro.observability.export import iter_events, write_event_log, write_openmetrics
from repro.observability.health import HealthPolicy
from repro.resilience import FaultPlan, run_simulation

N_RANKS = 2
LEAK = "leak:step=3,rate=0.12,count=3"


def main() -> None:
    config = SimulationConfig(n_per_side=6, n_steps=8)
    plan = FaultPlan.parse(LEAK)
    print("Fault plan:")
    print("  " + plan.describe().replace("\n", "\n  "))

    tracer = TraceRecorder()
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        result = run_simulation(
            config,
            world_size=N_RANKS,
            timeout=60.0,
            checkpoint_dir=Path(tmp) / "ckpts",
            checkpoint_every=1,
            fault_plan=plan,
            health=HealthPolicy(),
            tracer=tracer,
            metrics=metrics,
        )

        print()
        print(result.summary())

        # --- the detection story ------------------------------------
        assert result.recovered, "the run must have rolled back"
        assert result.health_alerts, "the monitor must have alerted"
        alert = result.health_alerts[0]
        print()
        print(f"Leak detected: {alert.describe()}")
        assert alert.step == 3, "detected on the first leaking step"
        assert alert.detector == "ewma-drift"

        restarted = result.attempts[1].restarted_from_step
        print(
            f"Rolled back to the step-{restarted} checkpoint (pre-leak) "
            "and completed clean."
        )
        assert result.ok

        # the recovered attempt's residuals are healthy again
        drift = result.health_monitor.series("sim.health.energy_drift").values
        assert all(v > -1e-9 for v in drift), "recovered run must only heat"

        # --- export the telemetry -----------------------------------
        events_path = write_event_log(
            Path(tmp) / "events.jsonl",
            tracer=tracer,
            metrics=metrics,
            monitor=result.health_monitor,
            alerts=result.health_alerts,
            meta={"title": "health_monitoring example"},
        )
        prom_path = write_openmetrics(Path(tmp) / "metrics.prom", metrics)
        print()
        print(f"Event log: {events_path.name} ({len(events_path.read_text().splitlines())} records)")
        print(f"OpenMetrics exposition: {prom_path.name}")

        # --- final dashboard frame ----------------------------------
        state = DashboardState()
        for event in iter_events(
            tracer=tracer,
            metrics=metrics,
            monitor=result.health_monitor,
            alerts=result.health_alerts,
            meta={"title": "health_monitoring example"},
        ):
            state.apply(event)
        print()
        print(render(state))
    print()
    print("Health monitoring round trip: leak -> EWMA alert -> rollback -> clean finish.")


if __name__ == "__main__":
    main()
