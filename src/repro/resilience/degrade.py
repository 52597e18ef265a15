"""The degradation ladder: shrink-and-continue → restart-world → abort.

A restart is all-or-nothing: any failure kills every rank and replays
the world from rank 0's last disk checkpoint.  Exascale practice (and
ULFM's design) prefers *graceful degradation*: when a rank dies, the
survivors agree on the failure set, shrink the communicator, roll back
to the last step they all agreed on (each from its own in-memory copy
of the replicated state), and keep computing — no world teardown, no
disk.

A run names its policy, one of :data:`DEGRADE_POLICIES`; each starts
at its own rung and escalates rightward through the ones after it:

``shrink``
    Survivors roll back to the last agreed step and continue at
    reduced world size; a failure every rank raises at once (a
    divergence, a health escalation) leaves no survivor and escalates
    to a restart.
``restart``
    The library default — tear the world down and replay every rank
    from the newest valid disk checkpoint.
``abort``
    Give up; :class:`~repro.resilience.runner.SimulationAborted`
    carries the attempt history.

Every survivor learns the survivor set from the same
:class:`~repro.hacc.mpi_sim.AgreeOutcome` snapshot and rolls back to
the same step, so every survivor thread independently shrinks to the
same communicator without a second round of agreement.
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
