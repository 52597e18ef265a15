"""Reference computations the machine-model tests hold the product to:
a device's lane count and its rated peak against lanes x 2 x clock, a profile with
its work scaled, and the atomics' share of a kernel's cycles."""

from __future__ import annotations

import dataclasses
import math

from repro.machine.cost_model import CostModel, InstructionProfile
from repro.machine.cpu import CPU_HOST
from repro.machine.device import DeviceSpec


def total_lanes(spec: DeviceSpec) -> int:
    """Total FP32 lanes in the slice."""
    return spec.compute_units * spec.simd_width


def peak_consistency_error(spec: DeviceSpec) -> float:
    """Relative error between the rated peak and lanes*2*clock.

    Guards against typos in the device data; a small error is expected
    because vendors rate peaks at boost clocks and with
    architecture-specific dual-issue rules.
    """
    implied = total_lanes(spec) * 2.0 * spec.clock_ghz * 1e9
    if implied == 0:
        return math.inf
    return abs(spec.peak_flops - implied) / implied


def scaled(profile: InstructionProfile, factor: float) -> InstructionProfile:
    """Profile with all *count* fields multiplied by ``factor``.

    Register and local-memory footprints are per-work-item state,
    not counts, and are left unchanged.
    """
    updates = {}
    for f in dataclasses.fields(profile):
        if f.name in ("registers_needed", "local_mem_bytes_per_workgroup"):
            continue
        updates[f.name] = getattr(profile, f.name) * factor
    return dataclasses.replace(profile, **updates)


def atomic_cycle_share(profile, launch, device: DeviceSpec = CPU_HOST) -> float:
    """Share of per-work-item cycles spent in atomics for a profile."""
    cost = CostModel(device).kernel_cost(profile, launch)
    total = sum(cost.cycles.values())
    if total <= 0:
        return 0.0
    return cost.cycles["atomics"] / total
