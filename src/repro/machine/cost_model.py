"""Kernel cost model: instruction profiles -> simulated device time.

A kernel variant running on a device is summarised by an
:class:`InstructionProfile`: per-work-item operation counts measured
from the actual (NumPy) kernel implementations, plus register and
local-memory footprints.  :class:`CostModel` prices the profile on a
:class:`~repro.machine.device.DeviceSpec`, producing a
:class:`KernelCost` with a full cycle breakdown.

The model is a straightforward in-order cycle account with three
corrections that carry the paper's phenomena:

- *occupancy-dependent stalls* (register/local-memory pressure reduces
  latency hiding),
- *register spilling* (charged per inner-loop iteration),
- *a roofline memory bound* (kernel time is the max of the compute and
  memory times, with the NVIDIA shared-memory/L1 trade-off reducing
  effective bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.atomics import AtomicOp, AtomicsModel
from repro.machine.device import DeviceSpec, GRFMode
from repro.machine.memory import MemoryModel
from repro.machine.occupancy import OccupancyCalculator, OccupancyResult
from repro.machine.registers import RegisterModel
from repro.machine import shuffle as shuffle_ops

#: fraction of spilled registers that are actually touched per inner
#: iteration (not all spilled state is hot); calibration constant
SPILL_ACCESS_FRACTION = 0.25


@dataclass(frozen=True)
class InstructionProfile:
    """Per-work-item operation counts for one kernel execution.

    All counts are totals over the kernel's lifetime for one work-item
    (kernels derive them as interactions-per-work-item times
    per-interaction counts).
    """

    #: fused multiply-adds (2 flops each)
    fma: float = 0.0
    #: plain single-op flops (add/mul/sub/cmp)
    flops: float = 0.0
    #: integer/address operations
    int_ops: float = 0.0
    #: transcendental / special-function calls (pow, sqrt, exp, rsqrt)
    specials: float = 0.0
    #: arbitrary-pattern cross-lane word moves (select_from_group)
    shuffles: float = 0.0
    #: compile-time-known broadcasts (words)
    broadcasts: float = 0.0
    #: sub-group reductions (reduce_over_group calls)
    reduces: float = 0.0
    #: words exchanged via the inline-vISA butterfly (Intel-only)
    visa_exchanges: float = 0.0
    #: 32-bit local-memory exchange round-trips (Memory, 32-bit variant)
    lm_exchanges_32bit: float = 0.0
    #: object-at-once local-memory exchanges (Memory, Object variant)
    lm_exchange_objects: float = 0.0
    #: words per object exchange
    lm_object_words: float = 0.0
    #: float atomic adds issued
    atomic_adds: float = 0.0
    #: float atomic min/max issued
    atomic_minmax: float = 0.0
    #: global memory traffic in bytes
    global_bytes: float = 0.0
    #: live scalar registers required per work-item
    registers_needed: int = 32
    #: work-group local memory reserved per work-group, in bytes
    local_mem_bytes_per_workgroup: int = 0
    #: inner-loop iterations (interaction count) per work-item; spills
    #: are charged once per iteration
    interactions: float = 1.0

    @property
    def flop_count(self) -> float:
        """Total floating-point operations per work-item (FMA = 2)."""
        return 2.0 * self.fma + self.flops + self.specials


@dataclass(frozen=True)
class KernelLaunch:
    """Launch geometry and compile options for one kernel execution."""

    n_workitems: int
    workgroup_size: int = 128
    subgroup_size: int = 32
    grf_mode: GRFMode = GRFMode.SMALL
    fast_math: bool = True

    def __post_init__(self):
        if self.n_workitems <= 0:
            raise ValueError("n_workitems must be positive")
        if self.workgroup_size % self.subgroup_size != 0:
            raise ValueError(
                "work-group size must be a multiple of the sub-group size"
            )


@dataclass(frozen=True)
class KernelCost:
    """Priced kernel execution with a cycle breakdown."""

    device: str
    seconds: float
    compute_seconds: float
    memory_seconds: float
    occupancy: OccupancyResult
    stall_factor: float
    #: per-work-item cycle breakdown before the stall multiplier
    cycles: dict = field(default_factory=dict)
    flops_total: float = 0.0

    @property
    def achieved_tflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops_total / self.seconds / 1e12

    @property
    def bound(self) -> str:
        return "memory" if self.memory_seconds > self.compute_seconds else "compute"


class CostModel:
    """Prices instruction profiles on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self.occupancy = OccupancyCalculator(device)
        self.registers = RegisterModel(device)
        self.memory = MemoryModel(device)
        self.atomics = AtomicsModel(device)

    # ------------------------------------------------------------------
    def kernel_cost(
        self, profile: InstructionProfile, launch: KernelLaunch
    ) -> KernelCost:
        """Simulated execution time of one kernel launch."""
        dev = self.device
        dev.validate_subgroup_size(launch.subgroup_size)
        sg = launch.subgroup_size

        cycles: dict[str, float] = {}

        # -- compute pipeline -----------------------------------------
        special_cost = (
            dev.native_special_cycles
            if launch.fast_math
            else dev.precise_special_cycles
        )
        cycles["compute"] = (
            profile.fma * dev.fma_cycles
            + profile.flops * dev.fma_cycles
            + profile.int_ops * dev.fma_cycles
            + profile.specials * special_cost
        )

        # -- cross-lane communication ----------------------------------
        comm = (
            profile.shuffles * shuffle_ops.select_cycles(dev, sg)
            + profile.broadcasts * shuffle_ops.broadcast_cycles(dev)
            + profile.reduces * shuffle_ops.reduce_cycles(dev, sg)
        )
        if profile.visa_exchanges:
            comm += shuffle_ops.visa_butterfly_cycles(dev, profile.visa_exchanges)
        cycles["communication"] = comm

        # -- local-memory exchanges --------------------------------------
        lm_cycles = 0.0
        lm_bytes = profile.local_mem_bytes_per_workgroup
        if profile.lm_exchanges_32bit:
            one = self.memory.local_exchange(
                1, workgroup_size=launch.workgroup_size, separate_barriers=True
            )
            lm_cycles += profile.lm_exchanges_32bit * one.cycles
            lm_bytes = max(lm_bytes, one.local_mem_bytes_per_workgroup)
        if profile.lm_exchange_objects:
            obj = self.memory.local_exchange(
                max(1, int(round(profile.lm_object_words))),
                workgroup_size=launch.workgroup_size,
                separate_barriers=False,
            )
            lm_cycles += profile.lm_exchange_objects * obj.cycles
            lm_bytes = max(lm_bytes, obj.local_mem_bytes_per_workgroup)
        if lm_cycles:
            lm_cycles *= self.memory.l1_contention_factor(profile.registers_needed)
        cycles["local_memory"] = lm_cycles

        # -- atomics -------------------------------------------------------
        cycles["atomics"] = self.atomics.cycles(
            AtomicOp.ADD, profile.atomic_adds
        ) + self.atomics.cycles(AtomicOp.MIN, profile.atomic_minmax)

        # -- register spills -------------------------------------------------
        assignment = self.registers.assign(
            profile.registers_needed,
            subgroup_size=sg,
            grf_mode=launch.grf_mode,
        )
        cycles["spills"] = (
            self.registers.spill_cycles(assignment)
            * profile.interactions
            * SPILL_ACCESS_FRACTION
        )

        # -- occupancy & stalls ------------------------------------------------
        occ = self.occupancy.calculate(
            subgroup_size=sg,
            workgroup_size=launch.workgroup_size,
            registers_needed=profile.registers_needed,
            local_mem_bytes_per_workgroup=lm_bytes,
            grf_mode=launch.grf_mode,
        )
        stall = self.occupancy.stall_factor(occ.occupancy)

        per_item = sum(cycles.values())
        lanes = dev.compute_units * dev.simd_width
        # sub-groups narrower than the native execution width leave
        # lanes idle (e.g. a 32-wide sub-group on the wave64 MI250X)
        utilisation = dev.lane_utilisation(sg)
        compute_seconds = (
            per_item
            * launch.n_workitems
            * stall
            / (lanes * utilisation * dev.clock_ghz * 1e9)
        )

        # -- memory roofline -------------------------------------------------------
        subgroups_per_wg = launch.workgroup_size // sg
        resident_wgs = max(1, occ.resident_subgroups // max(1, subgroups_per_wg))
        memory_seconds = self.memory.memory_time(
            profile.global_bytes * launch.n_workitems,
            local_mem_bytes_per_cu=float(lm_bytes * resident_wgs),
        )

        seconds = max(compute_seconds, memory_seconds)
        seconds /= dev.node_mapping_efficiency

        return KernelCost(
            device=dev.name,
            seconds=seconds,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            occupancy=occ,
            stall_factor=stall,
            cycles=cycles,
            flops_total=profile.flop_count * launch.n_workitems,
        )
