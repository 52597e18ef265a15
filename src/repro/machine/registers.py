"""Register allocation and spill model.

The paper's central performance-portability tension is register
pressure: the broadcast-restructured kernels hold two particles' state
per work-item and spill catastrophically on the A100 (Section 5.4,
"almost 10x slower in some cases"), while on Intel hardware the
combination of the large-GRF mode and a sub-group size of 16 provides a
4x register headroom (Section 5.2) that absorbs the same pressure.

The model distinguishes the two allocation disciplines described in
:class:`repro.machine.device.RegisterAllocation`:

- *fixed partition* (Intel): the budget per work-item is set by the GRF
  mode and the sub-group size; demand beyond it spills.
- *occupancy traded* (NVIDIA/AMD): the compiler allocates up to the
  architectural per-thread maximum, lowering occupancy; demand beyond
  the maximum spills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.device import DeviceSpec, GRFMode, RegisterAllocation


@dataclass(frozen=True)
class RegisterAssignment:
    """Result of register allocation for one kernel on one device."""

    #: scalar registers requested per work-item
    requested: int
    #: scalar registers actually held in the register file
    allocated: int
    #: scalar registers spilled to memory
    spilled: int
    #: the budget that applied (fixed partition or architectural max)
    budget: int


class RegisterModel:
    """Per-device register assignment."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def budget(self, *, subgroup_size: int, grf_mode: GRFMode) -> int:
        """Scalar registers one work-item may hold without spilling."""
        dev = self.device
        if dev.register_allocation is RegisterAllocation.FIXED_PARTITION:
            return dev.registers_per_workitem(subgroup_size, grf_mode)
        return dev.max_regs_per_workitem

    def assign(
        self,
        requested: int,
        *,
        subgroup_size: int,
        grf_mode: GRFMode = GRFMode.SMALL,
    ) -> RegisterAssignment:
        """Allocate ``requested`` scalar registers per work-item."""
        if requested < 0:
            raise ValueError("register demand must be non-negative")
        cap = self.budget(subgroup_size=subgroup_size, grf_mode=grf_mode)
        allocated = min(requested, cap)
        spilled = max(0, requested - cap)
        return RegisterAssignment(
            requested=requested, allocated=allocated, spilled=spilled, budget=cap
        )

    def spill_cycles(self, assignment: RegisterAssignment) -> float:
        """Cycles per interaction charged for spill traffic.

        Each spilled register is assumed to be refilled/stored once per
        inner interaction iteration; the per-register cost is the
        device's calibrated :attr:`spill_cycles_per_register`.  The
        superlinear exponent models cache-thrashing once spill working
        sets exceed nearby cache (A100's spill cliff).
        """
        if assignment.spilled <= 0:
            return 0.0
        dev = self.device
        return (
            dev.spill_cycles_per_register
            * assignment.spilled ** dev.spill_pressure_exponent
        )
