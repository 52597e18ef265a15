"""Occupancy calculation for the virtual GPUs.

Occupancy — the fraction of a compute unit's hardware-thread slots that
are resident — controls how well a device hides latency.  The paper's
Section 5.2 discusses the Intel-specific interplay between the register
file mode and occupancy (the large-GRF mode halves the resident
threads, capping occupancy at 50%); on NVIDIA and AMD devices the
compiler instead trades registers per work-item against the number of
resident sub-groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.device import DeviceSpec, GRFMode, RegisterAllocation
from repro.machine.registers import RegisterModel

#: register allocation granularity on occupancy-traded devices (the
#: hardware allocates registers in blocks; 8 matches NVIDIA's rounding)
REGISTER_GRANULARITY = 8


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of an occupancy calculation for one kernel launch."""

    #: sub-groups (hardware threads) resident per compute unit
    resident_subgroups: int
    #: the device's nominal maximum for the launch's GRF mode
    max_subgroups: int
    #: resident / nominal-max-in-default-mode, in [0, 1]
    occupancy: float
    #: what bounded residency: "threads", "registers", "local_mem"
    limited_by: str


class OccupancyCalculator:
    """Computes occupancy for kernel launches on one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self._registers = RegisterModel(device)

    def calculate(
        self,
        *,
        subgroup_size: int,
        workgroup_size: int,
        registers_needed: int,
        local_mem_bytes_per_workgroup: int = 0,
        grf_mode: GRFMode = GRFMode.SMALL,
    ) -> OccupancyResult:
        """Occupancy of a launch on this device.

        ``registers_needed`` is the kernel's live scalar register
        requirement per work-item (before any spilling).
        """
        dev = self.device
        dev.validate_subgroup_size(subgroup_size)
        if workgroup_size % subgroup_size != 0:
            raise ValueError(
                f"work-group size {workgroup_size} is not a multiple of "
                f"sub-group size {subgroup_size}"
            )

        # The nominal ceiling against which occupancy is reported is the
        # default-mode thread count: this is what makes the Intel
        # large-GRF mode read as "50% occupancy" (Section 5.2).
        nominal_max = dev.threads_per_cu
        mode_max = dev.threads_per_cu_for(grf_mode)
        limited_by = "threads"
        resident = mode_max

        if dev.register_allocation is RegisterAllocation.OCCUPANCY_TRADED:
            allocation = self._registers.assign(
                registers_needed, subgroup_size=subgroup_size, grf_mode=grf_mode
            )
            granule = REGISTER_GRANULARITY
            alloc = max(
                granule,
                ((allocation.allocated + granule - 1) // granule) * granule,
            )
            regfile_scalars = (
                dev.registers_per_thread
                * dev.threads_per_cu
                * dev.default_subgroup_size
            )
            by_regs = regfile_scalars // (alloc * subgroup_size)
            if by_regs < resident:
                resident = by_regs
                limited_by = "registers"

        if local_mem_bytes_per_workgroup > 0:
            lm_budget = dev.local_mem_per_cu_kib * 1024
            wgs_per_cu = lm_budget // local_mem_bytes_per_workgroup
            subgroups_per_wg = workgroup_size // subgroup_size
            by_lm = wgs_per_cu * subgroups_per_wg
            if by_lm < resident:
                resident = by_lm
                limited_by = "local_mem"

        resident = max(0, min(resident, mode_max))
        occupancy = resident / nominal_max if nominal_max else 0.0
        return OccupancyResult(
            resident_subgroups=int(resident),
            max_subgroups=int(mode_max),
            occupancy=float(min(1.0, occupancy)),
            limited_by=limited_by,
        )

    def stall_factor(self, occupancy: float) -> float:
        """Latency-hiding penalty multiplier.

        A fully occupied device pays no penalty; an idle one pays
        ``1 + stall_weight``.  The linear form is a deliberate
        simplification: the reproduction only needs the *direction* of
        the effect (lower occupancy -> longer kernels).
        """
        occ = min(1.0, max(0.0, occupancy))
        return 1.0 + self.device.stall_weight * (1.0 - occ)
