"""Graceful degradation: an 8-rank run that finishes on 6.

The restart ladder in ``fault_tolerant_run.py`` throws away in-flight
work: any rank death rewinds the whole world to the last disk
checkpoint.  At exascale that is often the wrong trade — ULFM-style
fault tolerance instead *shrinks* the communicator around the dead
ranks and keeps going.  This example opts into that ladder
(``degrade_policy="shrink"``) and survives two separate node failures
without touching disk at all:

1. rank 3 is killed at step 1 — the seven survivors agree on the dead
   set, rank 4 adopts rank 3's buddy snapshot from the in-memory
   differential-checkpoint tier, everyone rolls back one step, and the
   run continues on a 7-rank communicator;
2. rank 5 is killed at step 2 — same protocol again, and the run
   finishes on 6 ranks.

No ``checkpoint_dir`` is configured: recovery state lives entirely in
the buddy tier (each rank deposits a differential snapshot with its
ring neighbour every step).  The degraded run must still reproduce the
fault-free reference bit for bit, because the replicated-lockstep
model computes identical physics on every rank regardless of world
size.

Run:  python examples/degraded_run.py
"""

from repro.hacc.timestep import AdiabaticDriver, SimulationConfig
from repro.resilience import FaultPlan, RetryPolicy, run_simulation

N_RANKS = 8


def main() -> None:
    config = SimulationConfig(n_per_side=6, n_steps=3)

    plan = FaultPlan.parse("kill:rank=3,step=1;kill:rank=5,step=2", seed=7)
    print("Fault plan:")
    print("  " + plan.describe().replace("\n", "\n  "))

    # the fault-free reference the degraded run must reproduce
    reference = AdiabaticDriver(config)
    reference.run()

    result = run_simulation(
        config,
        world_size=N_RANKS,
        timeout=15.0,
        fault_plan=plan,
        degrade_policy="shrink",
        retry_policy=RetryPolicy(max_retries=1),
        echo=lambda msg: print(f"  {msg}"),
    )

    print("\n" + result.summary())
    print("\nDegradation history:")
    for event in result.degradations:
        print(f"  {event.describe()}")

    assert result.ok, "degraded run failed validation"
    assert result.degraded, "expected the world to shrink"
    assert result.final_world_size == N_RANKS - 2, result.final_world_size
    assert len(result.attempts) == 1, "shrink path must not restart the world"
    dead = {r for event in result.degradations for r in event.dead_ranks}
    assert dead == {3, 5}, dead

    # the degradation guarantee: conserved quantities still match the
    # uninterrupted 8-rank run bit for bit
    for ref, got in zip(reference.diagnostics, result.driver.diagnostics):
        assert got.kinetic_energy == ref.kinetic_energy
        assert got.thermal_energy == ref.thermal_energy
    print(
        f"\nStarted on {N_RANKS} ranks, finished on "
        f"{result.final_world_size}; physics matches the fault-free "
        f"reference exactly ({len(result.driver.diagnostics)} steps compared)."
    )


if __name__ == "__main__":
    main()
