"""A fault-tolerant 8-rank run: injection, detection, and recovery.

Production CRK-HACC campaigns at exascale plan for node failures and
silent data corruption; the run survives because checkpoints are
frequent, collectives fail loudly instead of deadlocking, and kernel
outputs are screened in flight.  This example drives the resilience
subsystem through a deliberately hostile schedule:

1. rank 3 is killed at step 1 (a "node failure") — the seven
   survivors raise RankFailure instead of hanging, and the run
   restarts from the last checkpoint;
2. a NaN is injected into the upBarAc (Acceleration) kernel output at
   step 2 — the in-flight guard catches it the same step;
3. one checkpoint write is failed mid-flight — the atomic
   temp+rename protocol means no valid checkpoint is ever shadowed by
   a torn file, and the run simply keeps an older restart point.

The recovered run must finish with a clean validation report and the
same conserved quantities as a fault-free run.

Run:  python examples/fault_tolerant_run.py
"""

import tempfile
from pathlib import Path

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience import FaultPlan, RetryPolicy, run_simulation

N_RANKS = 8


def main() -> None:
    config = SimulationConfig(n_per_side=6, n_steps=3)

    # the hostile schedule: one fault of each flavour
    plan = FaultPlan.parse(
        "kill:rank=3,step=1;"
        "corrupt:kernel=upBarAc,step=2,rank=1,mode=nan;"
        "ckptfail:step=2",
        seed=42,
    )
    print("Fault plan:")
    print("  " + plan.describe().replace("\n", "\n  "))

    # the fault-free reference the recovered run must reproduce
    reference = AdiabaticDriver(config)
    reference.run()

    with tempfile.TemporaryDirectory() as tmp:
        result = run_simulation(
            config,
            world_size=N_RANKS,
            timeout=15.0,
            checkpoint_dir=Path(tmp),
            checkpoint_every=1,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=3),
            echo=lambda msg: print(f"  {msg}"),
        )

        print("\n" + result.summary())
        print("\nAttempt history:")
        for record in result.attempts:
            line = f"  #{record.attempt}: {record.outcome}"
            if record.restarted_from_step is not None:
                line += f" (restarted from step {record.restarted_from_step})"
            if record.failure:
                line += f" -- {record.failure}"
            print(line)

        assert result.ok, "recovered run failed validation"
        assert result.recovered, "expected at least one recovery"

    # the recovery guarantee: conserved quantities match the
    # uninterrupted run bit for bit
    for ref, got in zip(reference.diagnostics, result.driver.diagnostics):
        assert got.kinetic_energy == ref.kinetic_energy
        assert got.thermal_energy == ref.thermal_energy
    print(
        "\nRecovered run matches the fault-free reference exactly "
        f"({len(result.driver.diagnostics)} steps compared)."
    )


if __name__ == "__main__":
    main()
