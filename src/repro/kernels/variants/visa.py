"""The *vISA* variant: inline-assembly butterfly shuffle (Section 5.3.3).

The specialized butterfly exchange (Figure 7) preserves the half-warp
algorithm's pair symmetry but, unlike the XOR pattern, its data
movement is known at compile time and can be implemented in four
``mov`` instructions exploiting register regioning and the register
file's wrap-around (Figure 8).

Inline vISA is only accepted by Intel's toolchain; on any other device
this variant fails to compile, which is what zeroes its performance
portability in Figure 12.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.specs import KernelSpec
from repro.kernels.variants.base import ProfileFields, Variant
from repro.machine.device import DeviceSpec
from repro.proglang import intrinsics


class VisaVariant(Variant):
    """Butterfly exchange via inline vISA (Intel only)."""

    name = "visa"
    paper_label = "vISA"
    algorithm = "halfwarp"

    REGISTER_OVERHEAD = 8  # duplicated register pairs of Figure 8

    def supported(self, device: DeviceSpec) -> bool:
        return device.supports_inline_visa

    def profile_fields(
        self, spec: KernelSpec, device: DeviceSpec, subgroup_size: int
    ) -> ProfileFields:
        if not device.supports_inline_visa:
            raise RuntimeError(
                f"vISA variant cannot target {device.name}"
            )
        return ProfileFields(
            visa_exchanges=float(spec.payload_words),
            registers=self.effective_registers(
                spec.registers_halfwarp + self.REGISTER_OVERHEAD,
                spec.uniform_registers_halfwarp,
                device,
                subgroup_size,
            ),
        )

    def exchange(
        self,
        values: np.ndarray,
        partner: np.ndarray,
        scratch: dict[str, np.ndarray],
    ) -> np.ndarray:
        # Semantically the butterfly gather; the half-warp simulator
        # drives this variant with butterfly partner indices, but any
        # permutation is honoured (the mov sequence realises a gather).
        return intrinsics.select_from_group(values, partner)
