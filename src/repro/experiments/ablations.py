"""Ablations beyond the paper's headline figures.

Three studies the paper motivates but does not tabulate:

- :func:`register_sweep` -- Section 5.2's register-pressure controls
  on Aurora: GRF mode x sub-group size (the "4x increase in available
  registers per work-item").  The paper states the best combination is
  kernel-specific; the sweep regenerates that conclusion.
- :func:`exchange_crossover` -- Memory, 32-bit vs Memory, Object as a
  function of payload size: the object exchange amortises barriers, so
  there is a payload size beyond which it always wins.
- :func:`specialization_gain` -- Section 6's trade-off: single-variant
  configurations vs per-kernel best selection, per platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.workload import reference_trace
from repro.hacc.timestep import WorkloadTrace
from repro.kernels.adiabatic import (
    AdiabaticKernelDefinition,
    best_variant_map,
    price_trace,
)
from repro.kernels.specs import KERNEL_SPECS
from repro.kernels.variants import ALL_VARIANTS, variant_by_name
from repro.machine.cost_model import CostModel, KernelLaunch
from repro.machine.device import GRFMode
from repro.machine.memory import MemoryModel
from repro.machine.registry import AURORA, all_devices
from repro.proglang.model import CompileError, ProgrammingModel


# ---------------------------------------------------------------------------
# Section 5.2: GRF mode x sub-group size on Aurora
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterSweepPoint:
    kernel: str
    subgroup_size: int
    grf_mode: str
    registers_per_workitem: int
    seconds: float


def register_sweep(trace: WorkloadTrace | None = None) -> list[RegisterSweepPoint]:
    """Per-kernel timing across the four register configurations."""
    trace = trace if trace is not None else reference_trace()
    # the local-memory variant's exchange cost is independent of the
    # sub-group size, so the sweep isolates the register-pressure
    # effect Section 5.2 describes
    variant = variant_by_name("memory_object")
    cost_model = CostModel(AURORA)
    points: list[RegisterSweepPoint] = []
    by_kernel = trace.by_kernel()
    for timer, invocations in by_kernel.items():
        from repro.kernels.specs import TIMER_TO_KERNEL

        spec = KERNEL_SPECS[TIMER_TO_KERNEL[timer]]
        for sg in (16, 32):
            for grf in (GRFMode.SMALL, GRFMode.LARGE):
                total = 0.0
                for inv in invocations:
                    definition = AdiabaticKernelDefinition(
                        spec, variant, inv.interactions_per_item, timer=timer
                    )
                    profile = definition.profile(
                        AURORA, subgroup_size=sg, fast_math=True
                    )
                    launch = KernelLaunch(
                        n_workitems=inv.n_workitems,
                        subgroup_size=sg,
                        grf_mode=grf,
                        fast_math=True,
                    )
                    total += cost_model.kernel_cost(profile, launch).seconds
                points.append(
                    RegisterSweepPoint(
                        kernel=timer,
                        subgroup_size=sg,
                        grf_mode=grf.value,
                        registers_per_workitem=AURORA.registers_per_workitem(sg, grf),
                        seconds=total,
                    )
                )
    return points


def best_register_config(points: list[RegisterSweepPoint]) -> dict[str, tuple[int, str]]:
    """Per-kernel best (sub-group, GRF mode) -- kernel-specific, per
    the paper's observation."""
    best: dict[str, RegisterSweepPoint] = {}
    for p in points:
        if p.kernel not in best or p.seconds < best[p.kernel].seconds:
            best[p.kernel] = p
    return {k: (p.subgroup_size, p.grf_mode) for k, p in best.items()}


# ---------------------------------------------------------------------------
# Memory, 32-bit vs Memory, Object crossover
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CrossoverPoint:
    system: str
    payload_words: int
    cycles_32bit: float
    cycles_object: float


def exchange_crossover(max_words: int = 16) -> list[CrossoverPoint]:
    """Exchange cost vs payload size for both local-memory variants."""
    points = []
    for device in all_devices():
        memory = MemoryModel(device)
        for words in range(1, max_words + 1):
            c32 = words * memory.local_exchange(
                1, workgroup_size=128, separate_barriers=True
            ).cycles
            cobj = memory.local_exchange(
                words, workgroup_size=128, separate_barriers=False
            ).cycles
            points.append(
                CrossoverPoint(
                    system=device.system,
                    payload_words=words,
                    cycles_32bit=c32,
                    cycles_object=cobj,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Section 5.3.1's what-if: a compiler that lowers select_from_group to
# work-group local memory on Intel hardware
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompilerLoweringStudy:
    """PP of out-of-box Select code, with and without the lowering.

    "It is conceivable that future SYCL compilers could directly map
    usage of sycl::select_from_group to work-group local memory on the
    Intel Data Center GPU Max 1550 and thereby improve the out-of-box
    performance of migrated SYCL codes."  The study quantifies that
    proposal: the same single-source Select code, with the compiler
    transparently substituting the local-memory exchange on
    indirect-access hardware.
    """

    pp_select: float
    pp_select_lowered: float
    pp_hand_specialised: float


def compiler_lowering_study(trace: WorkloadTrace | None = None) -> CompilerLoweringStudy:
    """Quantify the Section 5.3.1 compiler-lowering proposal."""
    from repro.core.cascade import cascade_data
    from repro.core.specialization import Configuration, PlatformChoice
    from repro.machine.device import ShuffleImplementation
    from repro.proglang.model import ProgrammingModel

    trace = trace if trace is not None else reference_trace()

    sycl = ProgrammingModel.SYCL
    lowered = Configuration(
        "SYCL (Select, compiler-lowered)",
        {
            # the lowering fires only where shuffles are indirect
            d.system: PlatformChoice(
                sycl,
                "memory_object"
                if d.shuffle_impl is ShuffleImplementation.INDIRECT_REGISTER
                else "select",
            )
            for d in all_devices()
        },
    )
    from repro.core.specialization import standard_configurations

    configs = standard_configurations() + [lowered]
    data = cascade_data(trace, configs)
    return CompilerLoweringStudy(
        pp_select=data.pp["SYCL (Select)"],
        pp_select_lowered=data.pp["SYCL (Select, compiler-lowered)"],
        pp_hand_specialised=data.pp["SYCL (Select + Memory)"],
    )


# ---------------------------------------------------------------------------
# Section 6: specialization gain per platform
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpecializationRow:
    system: str
    best_single_variant: str
    single_seconds: float
    specialized_seconds: float

    @property
    def gain(self) -> float:
        return self.single_seconds / self.specialized_seconds


def specialization_gain(trace: WorkloadTrace | None = None) -> list[SpecializationRow]:
    """Best single variant vs per-kernel best selection, per system."""
    trace = trace if trace is not None else reference_trace()
    rows = []
    for device in all_devices():
        singles = {}
        for v in ALL_VARIANTS:
            try:
                singles[v.name] = price_trace(
                    trace, device, ProgrammingModel.SYCL, v
                ).total_seconds
            except CompileError:
                continue
        best_single = min(singles, key=singles.get)
        best_map = best_variant_map(trace, device, ProgrammingModel.SYCL)
        specialized = price_trace(
            trace, device, ProgrammingModel.SYCL, best_map
        ).total_seconds
        rows.append(
            SpecializationRow(
                system=device.system,
                best_single_variant=best_single,
                single_seconds=singles[best_single],
                specialized_seconds=specialized,
            )
        )
    return rows


if __name__ == "__main__":  # pragma: no cover
    for kernel, cfg in best_register_config(register_sweep()).items():
        print(f"{kernel}: best sub-group={cfg[0]}, GRF={cfg[1]}")
    for row in specialization_gain():
        print(
            f"{row.system}: best single={row.best_single_variant}, "
            f"specialization gain={row.gain:.2f}x"
        )
