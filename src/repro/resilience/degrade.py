"""The degradation ladder: shrink-and-continue → restart-world → abort.

PR 1's recovery model was all-or-nothing: any failure killed every rank
and replayed the world from rank 0's last disk checkpoint.  Exascale
practice (and ULFM's design) prefers *graceful degradation*: when a
rank dies, the survivors agree on the failure set, shrink the
communicator, adopt the dead rank's share of the state from in-memory
buddy checkpoints, and keep computing — no world teardown, no disk.

A run names its policy, one of :data:`DEGRADE_POLICIES`; each starts
at its own rung and escalates rightward through the ones after it:

``shrink``
    Survivors continue at reduced world size, when the buddy state of
    every dead rank is adoptable (its holder survived); otherwise the
    failure escalates to a restart.
``restart``
    PR 1 behaviour (the library default) — tear the world down and
    replay every rank from the newest valid disk checkpoint.
``abort``
    Give up; :class:`~repro.resilience.runner.SimulationAborted`
    carries the attempt history.

Every shrink decision is *deterministic in its inputs* (survivor set,
buddy adoptability) — which the survivors learn from the same
:class:`~repro.hacc.mpi_sim.AgreeOutcome` snapshot — so every survivor
thread independently reaches the same verdict without a second round
of agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the policy names, in escalation order
DEGRADE_POLICIES = ("shrink", "restart", "abort")


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken: who died, who survived, what was decided."""

    step: int
    action: str  # one of DEGRADE_POLICIES
    dead_ranks: tuple[int, ...]
    survivors: tuple[int, ...]
    reason: str

    def describe(self) -> str:
        return (
            f"step {self.step}: {self.action} "
            f"(dead {list(self.dead_ranks)} -> {len(self.survivors)} survivor(s); "
            f"{self.reason})"
        )
