"""Standalone kernels driven by checkpoint files (Section 7.2).

"To facilitate rapid prototyping and analysis, we extracted CRK-HACC's
biggest hotspots into standalone applications driven by checkpoint
files."  The files are the run's own
:class:`~repro.resilience.restart.SimulationCheckpoint`\\ s:
:func:`run_standalone` replays any of the five hot kernels from one,
bit for bit what the run computes.

"Working with these standalone kernels helped us to establish an upper
bound for achievable performance, and ultimately drove us to develop
each of the SYCL variants outlined in Section 5."  :func:`explore_kernel`
reproduces that workflow quantitatively: from a checkpoint it derives
the kernel's exact interaction statistics, prices every legal
(variant, sub-group, GRF) configuration on a device, and reports the
ranking -- the per-kernel upper bound the paper's authors chased.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.hacc.particles import ParticleData, Species
from repro.hacc.sph.pairs import PairContext
from repro.hacc.timestep import TIMER_NAMES, WorkloadTrace, hydro_force, hydro_state
from repro.kernels.specs import KERNEL_SPECS
from repro.kernels.tuning import TunedConfig
from repro.machine.device import DeviceSpec
from repro.resilience.restart import SIM_FORMAT_VERSION, SimulationCheckpoint

#: kernels runnable standalone, keyed by the paper's names, in pipeline order
STANDALONE_KERNELS = ("geometry", "corrections", "extras", "acceleration", "energy")
#: the timer each one runs under in the driver's first hydro pass
_TIMER_OF = dict(zip(STANDALONE_KERNELS, TIMER_NAMES))


def _gas_view(
    checkpoint: SimulationCheckpoint,
) -> tuple[ParticleData, np.ndarray, PairContext]:
    """A fresh particle set, its gas rows and their pair context, as
    the driver's ``_gas_view`` takes them."""
    p = checkpoint.particles()
    idx = np.nonzero(p.species_mask(Species.BARYON))[0]
    return p, idx, PairContext.build(p.positions[idx], p.hsml[idx], p.box)


def run_standalone(
    checkpoint: SimulationCheckpoint, kernel: str
) -> dict[str, np.ndarray]:
    """Run one hot kernel from a checkpoint; returns its named outputs.

    The replay runs the driver's own hydro stages (upstream kernels
    included, as the real standalone drivers replay the pipeline
    prefix) on the checkpoint's gas rows, so the outputs of a
    checkpoint taken at a step boundary are bit for bit what the next
    step's first pass hands its ``kernel_hook``.
    """
    if kernel not in STANDALONE_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {STANDALONE_KERNELS}"
        )
    timer = _TIMER_OF[kernel]
    seen: dict[str, dict[str, np.ndarray]] = {}

    def collect(timer, evaluate, *outputs):
        result = evaluate()
        seen[timer] = {name: getattr(result, name) for name in outputs}
        return result

    p, idx, ctx = _gas_view(checkpoint)
    corr = hydro_state(ctx, p, idx, collect)
    if timer not in seen:
        hydro_force(ctx, p, idx, corr, collect)
    return seen[timer]


def checkpoint_metadata(checkpoint: SimulationCheckpoint) -> str:
    """JSON summary of a checkpoint (for experiment logs)."""
    arrays = checkpoint.particle_arrays
    gas = arrays["species"] == Species.BARYON
    return json.dumps(
        {
            "format_version": SIM_FORMAT_VERSION,
            "step_index": checkpoint.step_index,
            "a": checkpoint.a,
            "n_particles": len(gas),
            "n_gas": int(gas.sum()),
            "box": checkpoint.box,
            "mean_h": float(arrays["hsml"][gas].mean()) if gas.any() else 0.0,
        },
        indent=2,
    )


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


def checkpoint_workload(
    checkpoint: SimulationCheckpoint, timer: str
) -> WorkloadTrace:
    """Build the single-kernel workload trace a checkpoint implies."""
    _, idx, ctx = _gas_view(checkpoint)
    trace = WorkloadTrace()
    trace.record(timer, len(idx), ctx.mean_neighbors())
    return trace


def explore_kernel(
    checkpoint: SimulationCheckpoint, kernel: str, device: DeviceSpec
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
        n_particles=trace.invocations[0].n_workitems,
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
