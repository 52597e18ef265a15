"""Standalone-kernel performance exploration (Section 7.2).

"Working with these standalone kernels helped us to establish an upper
bound for achievable performance, and ultimately drove us to develop
each of the SYCL variants outlined in Section 5."

This experiment reproduces that workflow quantitatively: from a
checkpoint of the gas state it derives the kernel's exact interaction
statistics, prices every legal (variant, sub-group, GRF) configuration
on a device, and reports the ranking -- the per-kernel upper bound the
paper's authors chased.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hacc.checkpoint import KernelCheckpoint
from repro.hacc.sph.pairs import PairContext
from repro.hacc.timestep import WorkloadTrace
from repro.kernels.specs import KERNEL_SPECS
from repro.kernels.tuning import TunedConfig, autotune
from repro.machine.device import DeviceSpec


@dataclass(frozen=True)
class StandaloneStudy:
    """Outcome of a standalone exploration for one kernel."""

    kernel: str
    device: str
    n_particles: int
    interactions_per_item: float
    #: every priced configuration, fastest first
    ranking: tuple[TunedConfig, ...]

    @property
    def best(self) -> TunedConfig:
        return self.ranking[0]

    @property
    def upper_bound_speedup(self) -> float:
        """Best over worst configuration -- the exploration headroom."""
        return self.ranking[-1].seconds / self.ranking[0].seconds


def checkpoint_workload(checkpoint: KernelCheckpoint, timer: str) -> WorkloadTrace:
    """Build the single-kernel workload trace a checkpoint implies."""
    ctx = PairContext.build(checkpoint.pos, checkpoint.h, checkpoint.box)
    trace = WorkloadTrace()
    trace.record(timer, checkpoint.n_particles, ctx.mean_neighbors())
    return trace


def explore_kernel(
    checkpoint: KernelCheckpoint, kernel: str, device: DeviceSpec
) -> StandaloneStudy:
    """Price every legal configuration of one kernel on one device."""
    spec = KERNEL_SPECS.get(kernel)
    if spec is None:
        raise KeyError(f"unknown kernel {kernel!r}; known: {sorted(KERNEL_SPECS)}")
    timer = spec.timers[0]
    trace = checkpoint_workload(checkpoint, timer)

    # reuse the tuner's exhaustive search, then flatten its per-config
    # pricing into a full ranking by re-running the inner sweep
    from repro.kernels.adiabatic import AdiabaticKernelDefinition
    from repro.kernels.tuning import _grf_modes, _kernel_seconds
    from repro.kernels.variants import ALL_VARIANTS
    from repro.machine.cost_model import CostModel
    from repro.proglang.compiler import DEFAULT_WORKGROUP_SIZE

    cost_model = CostModel(device)
    invocations = trace.by_kernel()[timer]
    priced: list[TunedConfig] = []
    for variant in ALL_VARIANTS:
        if not variant.supported(device):
            continue
        for sg in device.subgroup_sizes:
            if DEFAULT_WORKGROUP_SIZE % sg != 0:
                continue
            for grf in _grf_modes(device):
                seconds = _kernel_seconds(
                    device, cost_model, kernel, invocations, variant, sg, grf
                )
                priced.append(
                    TunedConfig(
                        kernel=kernel,
                        variant=variant,
                        subgroup_size=sg,
                        grf_mode=grf,
                        seconds=seconds,
                    )
                )
    priced.sort(key=lambda c: c.seconds)
    return StandaloneStudy(
        kernel=kernel,
        device=device.system,
        n_particles=checkpoint.n_particles,
        interactions_per_item=trace.invocations[0].interactions_per_item,
        ranking=tuple(priced),
    )


def format_study(study: StandaloneStudy, top: int = 5) -> str:
    lines = [
        f"{study.kernel} on {study.device}: {study.n_particles} particles, "
        f"{study.interactions_per_item:.1f} interactions/particle, "
        f"{study.upper_bound_speedup:.1f}x best-to-worst spread",
    ]
    for config in study.ranking[:top]:
        lines.append(
            f"  {config.variant.name:<14} sg{config.subgroup_size:<3} "
            f"{config.grf_mode.value:<6} {config.seconds * 1e6:9.1f} us"
        )
    return "\n".join(lines)
