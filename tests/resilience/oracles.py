"""Fault plans the resilience tests build from a list of specs."""

from __future__ import annotations

from typing import Iterable

from repro.resilience.faults import FaultPlan, FaultSpec


def plan_from_specs(specs: Iterable[FaultSpec], seed: int = 0) -> FaultPlan:
    """A plan of exactly ``specs``, in order."""
    return FaultPlan(faults=tuple(specs), seed=seed)
