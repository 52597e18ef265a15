"""Virtual-GPU machine models.

This subpackage is the hardware substitute for the paper's three test
systems (Aurora / Polaris / Frontier).  It provides:

- :mod:`repro.machine.device` -- the :class:`DeviceSpec` description of a
  GPU (or of the slice of a GPU that one MPI rank drives),
- :mod:`repro.machine.registry` -- the concrete device definitions used
  throughout the reproduction (Table 1 of the paper),
- :mod:`repro.machine.occupancy` -- an occupancy calculator,
- :mod:`repro.machine.registers` -- a register-allocation / spill model,
- :mod:`repro.machine.memory` -- local/global memory cost models,
- :mod:`repro.machine.atomics` -- native vs emulated atomic costs,
- :mod:`repro.machine.shuffle` -- cross-lane communication cost models,
- :mod:`repro.machine.cost_model` -- the per-kernel cycle/cost accounting,
- :mod:`repro.machine.executor` -- functional execution + simulated timing.

The models are deliberately *relative*: they are calibrated so that the
ratios between kernel variants and devices reproduce the orderings and
rough factors reported in the paper, not absolute wall-clock numbers.
"""

from repro.machine.device import (
    DeviceSpec,
    GRFMode,
    RegisterAllocation,
    ShuffleImplementation,
    UnsupportedSubgroupSize,
    Vendor,
)
from repro.machine.atomics import AtomicOp, AtomicsModel
from repro.machine.memory import MemoryModel
from repro.machine.registers import RegisterAssignment, RegisterModel
from repro.machine.registry import (
    AURORA,
    FRONTIER,
    POLARIS,
    all_devices,
    device_by_name,
)
from repro.machine.cost_model import (
    CostModel,
    InstructionProfile,
    KernelCost,
    KernelLaunch,
)
from repro.machine.occupancy import OccupancyCalculator, OccupancyResult
from repro.machine.executor import DeviceExecutor, ExecutionRecord

__all__ = [
    "DeviceSpec",
    "GRFMode",
    "RegisterAllocation",
    "ShuffleImplementation",
    "UnsupportedSubgroupSize",
    "Vendor",
    "AtomicOp",
    "AtomicsModel",
    "MemoryModel",
    "RegisterAssignment",
    "RegisterModel",
    "KernelLaunch",
    "AURORA",
    "POLARIS",
    "FRONTIER",
    "all_devices",
    "device_by_name",
    "CostModel",
    "InstructionProfile",
    "KernelCost",
    "OccupancyCalculator",
    "OccupancyResult",
    "DeviceExecutor",
    "ExecutionRecord",
]
