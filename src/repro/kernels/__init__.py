"""GPU kernel variants: the paper's Section 5 optimization study.

This subpackage holds the virtual-GPU side of the five hot kernels:

- :mod:`repro.kernels.specs` -- per-kernel workload characterizations
  (operation counts per interaction, exchanged payloads, outputs,
  register pressure) derived from the physics in
  :mod:`repro.hacc.sph`,
- :mod:`repro.kernels.halfwarp` -- the lane-level "half-warp"
  algorithm (Figures 3/4) with executable semantics,
- :mod:`repro.kernels.variants` -- the five communication variants of
  Section 5.3 (Select, Memory-32bit, Memory-Object, Broadcast, vISA),
- :mod:`repro.kernels.adiabatic` -- kernel definitions binding specs
  to variants, and the workload-trace replay that prices a physics run
  on any device under any variant,
- :mod:`repro.kernels.profiler` -- the per-kernel, per-device profile
  of that replay: cost-model-annotated spans on simulated device
  tracks and the profile table ``python -m repro profile`` prints.
"""

from repro.kernels.specs import KERNEL_SPECS, KernelSpec, TIMER_TO_KERNEL
from repro.kernels.variants import (
    ALL_VARIANTS,
    BroadcastVariant,
    Memory32Variant,
    MemoryObjectVariant,
    SelectVariant,
    Variant,
    VisaVariant,
    variant_by_name,
)
from repro.kernels.adiabatic import (
    AdiabaticKernelDefinition,
    TracePricer,
    best_variant_map,
    price_trace,
)
from repro.kernels.tuning import TunedConfig, TuningResult, autotune

__all__ = [
    "KERNEL_SPECS",
    "KernelSpec",
    "TIMER_TO_KERNEL",
    "ALL_VARIANTS",
    "Variant",
    "SelectVariant",
    "Memory32Variant",
    "MemoryObjectVariant",
    "BroadcastVariant",
    "VisaVariant",
    "variant_by_name",
    "AdiabaticKernelDefinition",
    "TracePricer",
    "best_variant_map",
    "price_trace",
    "TunedConfig",
    "TuningResult",
    "autotune",
]
