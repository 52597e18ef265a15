"""Configurations: what runs where (Section 6 / Figure 12).

A :class:`Configuration` assigns to each platform a programming model
and a kernel-variant policy.  The paper evaluates:

- single-model single-variant configurations (CUDA, HIP, each SYCL
  variant used everywhere),
- *specialised* SYCL configurations that keep a single source base but
  pick a different variant on Aurora (SYCL Select+Memory,
  SYCL Select+vISA),
- the *Unified* configuration mixing CUDA/HIP with SYCL, and
- per-platform best-variant selection ("best" policy), the hypothetical
  yardstick application efficiency is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels.adiabatic import TimingReport, TracePricer, best_variant_map
from repro.kernels.variants import Variant, variant_by_name
from repro.machine.device import DeviceSpec
from repro.machine.registry import all_devices
from repro.proglang.model import CompileError, ProgrammingModel


@dataclass(frozen=True)
class PlatformChoice:
    """Model + variant policy for one platform.

    ``variants`` is a variant name, a :class:`Variant`, a kernel-name
    -> variant mapping, or the string ``"best"`` (per-kernel best
    variant on that platform, Section 6's hypothetical application).
    """

    model: ProgrammingModel
    variants: object = "select"
    #: fast-math override; None uses the toolchain default.  The
    #: production CUDA/HIP builds of Appendix A pass -use_fast_math /
    #: -ffast-math explicitly, so the Figure 12 configurations set
    #: True; Figure 2's "initial" comparison uses the defaults.
    fast_math: bool | None = None


@dataclass(frozen=True)
class Configuration:
    """A named what-runs-where assignment across the platform set."""

    name: str
    choices: dict[str, PlatformChoice] = field(default_factory=dict)

    def choice_for(self, system: str) -> PlatformChoice | None:
        return self.choices.get(system)

    def price(self, trace, device: DeviceSpec) -> TimingReport | None:
        """Price the trace on ``device``; ``None`` if unsupported.

        ``None`` is the "does not run" outcome that Equation 1 turns
        into PP = 0.
        """
        choice = self.choice_for(device.system)
        if choice is None:
            return None
        try:
            variants = choice.variants
            if variants == "best":
                variants = best_variant_map(trace, device, choice.model)
            pricer = TracePricer(
                device, choice.model, variants, fast_math=choice.fast_math
            )
            return pricer.price(trace)
        except CompileError:
            return None


def standard_configurations() -> list[Configuration]:
    """The Figure 12 configuration set."""
    systems = [d.system for d in all_devices()]

    def everywhere(model: ProgrammingModel, variants) -> dict[str, PlatformChoice]:
        return {s: PlatformChoice(model, variants) for s in systems}

    sycl = ProgrammingModel.SYCL

    configs = [
        # CUDA targets only NVIDIA; HIP targets NVIDIA + AMD.  The
        # unsupported platforms are detected at price time (PP = 0).
        Configuration(
            "CUDA",
            {
                s: PlatformChoice(ProgrammingModel.CUDA, "select", fast_math=True)
                for s in systems
            },
        ),
        Configuration(
            "HIP",
            {
                s: PlatformChoice(ProgrammingModel.HIP, "select", fast_math=True)
                for s in systems
            },
        ),
        Configuration(
            "vISA", everywhere(ProgrammingModel.SYCL_VISA, "visa")
        ),
        Configuration("SYCL (Select)", everywhere(sycl, "select")),
        Configuration("SYCL (Memory, 32-bit)", everywhere(sycl, "memory32")),
        Configuration("SYCL (Memory, Object)", everywhere(sycl, "memory_object")),
        Configuration("SYCL (Broadcast)", everywhere(sycl, "broadcast")),
        # Specialised single-source SYCL: Select on Polaris/Frontier,
        # a different strategy on Aurora (Section 6.1).
        Configuration(
            "SYCL (Select + Memory)",
            {
                "Aurora": PlatformChoice(sycl, "memory_object"),
                "Polaris": PlatformChoice(sycl, "select"),
                "Frontier": PlatformChoice(sycl, "select"),
            },
        ),
        Configuration(
            "SYCL (Select + vISA)",
            {
                "Aurora": PlatformChoice(ProgrammingModel.SYCL_VISA, "visa"),
                "Polaris": PlatformChoice(sycl, "select"),
                "Frontier": PlatformChoice(sycl, "select"),
            },
        ),
        # Unified: the production CUDA/HIP code on Polaris/Frontier and
        # the (portable, single-variant) SYCL code on Aurora.
        Configuration(
            "Unified",
            {
                "Aurora": PlatformChoice(sycl, "memory_object"),
                "Polaris": PlatformChoice(
                    ProgrammingModel.CUDA, "select", fast_math=True
                ),
                "Frontier": PlatformChoice(
                    ProgrammingModel.HIP, "select", fast_math=True
                ),
            },
        ),
    ]
    return configs
